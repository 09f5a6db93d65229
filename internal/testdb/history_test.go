package testdb

import (
	"errors"
	"strings"
	"testing"
)

// TestShrinkStopsAtBudget: once the budget has passed, Shrink replays
// nothing more and returns the smallest history it had.
func TestShrinkStopsAtBudget(t *testing.T) {
	saved := shrinkBudget
	defer func() { shrinkBudget = saved }()
	h := Generate(Config{Seed: 1, Steps: 40})
	replays := 0
	fails := func(*History) bool { replays++; return true }

	shrinkBudget = 0
	if got := Shrink(h, fails); replays != 0 || len(got.Steps) != len(h.repaired().Steps) {
		t.Fatalf("spent budget: %d replays, %d of %d steps", replays, len(got.Steps), len(h.repaired().Steps))
	}
	shrinkBudget = saved
	if got := Shrink(h, fails); replays == 0 || len(got.Steps) >= len(h.repaired().Steps) {
		t.Fatalf("with budget: %d replays, %d of %d steps", replays, len(got.Steps), len(h.repaired().Steps))
	}
}

// TestRunReportsUnreproducedFailure: a failure that the shrunk history
// does not repeat is reported as such, with the original history.
func TestRunReportsUnreproducedFailure(t *testing.T) {
	var first *History
	err := Run(t.Name(), 1, Config{Steps: 20}, func(h *History) error {
		if first == nil {
			first = h
			return errors.New("once")
		}
		return nil
	})
	if err == nil {
		t.Fatal("the failure was not reported")
	}
	for _, want := range []string{"did not reproduce", first.GoString()} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("report lacks %q:\n%v", want, err)
		}
	}
}
