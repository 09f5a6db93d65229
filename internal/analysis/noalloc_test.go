package analysis

import (
	"path/filepath"
	"strings"
	"testing"
)

func TestParseEscapeDiags(t *testing.T) {
	out := strings.Join([]string{
		"# borg/internal/obs",
		"internal/obs/obs.go:148:17: make([]uint64, 8) escapes to heap",
		"internal/obs/obs.go:236:6: moved to heap: b",
		"internal/obs/obs.go:92:25: inlining call to (*Counter).Inc",
		"internal/obs/obs.go:100:2: v does not escape",
		"not a diagnostic line",
		"internal/obs/obs.go:bad:1: escapes to heap",
		"",
	}, "\n")
	diags := parseEscapeDiags([]byte(out))
	if len(diags) != 2 {
		t.Fatalf("want 2 escape diags, got %d: %+v", len(diags), diags)
	}
	if diags[0].File != "internal/obs/obs.go" || diags[0].Line != 148 {
		t.Errorf("first diag = %+v, want obs.go:148", diags[0])
	}
	if !strings.HasPrefix(diags[1].Message, "moved to heap") {
		t.Errorf("second diag message = %q, want moved-to-heap", diags[1].Message)
	}
}

func TestIsEscapeMessage(t *testing.T) {
	cases := []struct {
		msg  string
		want bool
	}{
		{"make([]uint64, 8) escapes to heap", true},
		{"moved to heap: b", true},
		{"&Registry{...} escapes to heap:", true},
		{"v does not escape", false},
		{"inlining call to (*Counter).Inc", false},
		{"can inline Leaky", false},
	}
	for _, c := range cases {
		if got := isEscapeMessage(c.msg); got != c.want {
			t.Errorf("isEscapeMessage(%q) = %v, want %v", c.msg, got, c.want)
		}
	}
}

func TestMatchEscapes(t *testing.T) {
	targets := []NoallocFunc{
		{PkgPath: "p", Name: "Pinned", File: "/mod/a.go", StartLine: 10, EndLine: 20},
	}
	diags := []escapeDiag{
		{File: "a.go", Line: 15, Message: "x escapes to heap"},    // inside span (relative path)
		{File: "/mod/a.go", Line: 9, Message: "escapes to heap"},  // before span
		{File: "/mod/a.go", Line: 21, Message: "escapes to heap"}, // after span
		{File: "b.go", Line: 15, Message: "escapes to heap"},      // other file
	}
	got := matchEscapes("/mod", targets, diags)
	if len(got) != 1 {
		t.Fatalf("want 1 finding, got %d: %v", len(got), got)
	}
	if got[0].Pos.Line != 15 || !strings.Contains(got[0].Message, "Pinned") {
		t.Errorf("finding = %v, want Pinned at line 15", got[0])
	}
}

// TestNoallocGateEndToEnd drives the whole gate against the fixture
// module in testdata/noallocmod: a real `go build -gcflags=-m` run,
// parsed and matched against the //borg:noalloc spans there.
func TestNoallocGateEndToEnd(t *testing.T) {
	dir := filepath.Join("testdata", "noallocmod")
	l, err := NewLoader(dir)
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	if err := l.List("./..."); err != nil {
		t.Fatalf("List: %v", err)
	}
	pkgs, _, err := l.Packages()
	if err != nil {
		t.Fatalf("Packages: %v", err)
	}
	targets := NoallocTargets(pkgs)
	if len(targets) != 2 {
		t.Fatalf("want 2 annotated functions, got %d: %+v", len(targets), targets)
	}
	diags, err := RunNoalloc(l, pkgs)
	if err != nil {
		t.Fatalf("RunNoalloc: %v", err)
	}
	var leaky, clean, unpinned int
	for _, d := range diags {
		switch {
		case strings.Contains(d.Message, "Leaky"):
			leaky++
		case strings.Contains(d.Message, "Clean"):
			clean++
		case strings.Contains(d.Message, "Unpinned"):
			unpinned++
		}
	}
	if leaky == 0 {
		t.Errorf("gate missed the escaping //borg:noalloc function Leaky; diags: %v", diags)
	}
	if clean != 0 {
		t.Errorf("gate flagged the allocation-free function Clean: %v", diags)
	}
	if unpinned != 0 {
		t.Errorf("gate flagged the unannotated function Unpinned: %v", diags)
	}
}
