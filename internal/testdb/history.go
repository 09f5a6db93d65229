package testdb

import (
	"errors"
	"fmt"
	"hash/fnv"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"borg/internal/query"
	"borg/internal/relation"
	"borg/internal/xrand"
)

// This file generates seeded histories: a random star or snowflake
// schema plus a sequence of operations over it, as a model-based
// differential tester replays them against the maintainers and the
// serving tier and checks them against Oracle, a recompute over the
// surviving rows.
//
// Every relation holds the partition attribute p, so a history runs at
// any shard count. Dimension keys repeat (many-to-many edges), fact keys
// range past what the dimensions populate (dangling rows), and values
// are dyadic (k/2¹⁰, exact under any summation order) or real (product
// order shows in the bits).

// Kind is one operation of a history.
type Kind uint8

const (
	Insert Kind = iota // insert Row into Rel
	Delete             // delete one live row equal to Row
	Update             // replace live Row by New, keeping the partition value
	Flush              // barrier: everything before it is visible
	Replan             // replan the join tree from live cardinalities
	Hold               // a reader takes the current epoch and keeps it
	Close              // the end of the history
)

var kindNames = [...]string{"Insert", "Delete", "Update", "Flush", "Replan", "Hold", "Close"}

func (k Kind) String() string { return kindNames[k] }

// Step is one operation. Rows are in schema order, with values as the
// facade takes them: string for categorical, float64 for continuous.
// By names the producer that issues a row op: a delete or update is
// issued by the producer that inserted its target.
type Step struct {
	Kind     Kind
	Rel      string
	Row, New []any
	By       int
}

// Config is a history's shape. Generate fills in the fields left zero,
// so a History's Config is complete and regenerates it.
type Config struct {
	Seed uint64
	// Steps is the number of row operations outside the drain (default
	// 150–250).
	Steps int
	// Dims is the number of dimensions (1–3, default drawn).
	Dims int
	// Snowflake hangs Sub0 below Dim0.
	Snowflake bool
	// Real draws real continuous values instead of dyadic ones.
	Real bool
	// Replans interleaves replan steps.
	Replans bool
	// Producers spreads the row operations over this many producers
	// (default 1).
	Producers int
}

// History is a schema and the steps run over it.
type History struct {
	Config Config
	Steps  []Step
}

// Rel is one relation of a history's schema.
type Rel struct {
	Name  string
	Attrs []relation.Attribute
}

// Partition is the attribute every relation holds.
const Partition = "p"

func cat(name string) relation.Attribute {
	return relation.Attribute{Name: name, Type: relation.Category}
}
func num(name string) relation.Attribute {
	return relation.Attribute{Name: name, Type: relation.Double}
}

// Schema lists the relations, the fact first:
//
//	Fact(p, k0..k{d-1}, fc, fx, fy)
//	Dim<i>(p, k<i>, d<i>x, d<i>g)   Dim0 gains s0 in a snowflake
//	Sub0(p, s0, sx)                 snowflake only
func (h *History) Schema() []Rel {
	fact := []relation.Attribute{cat(Partition)}
	for i := 0; i < h.Config.Dims; i++ {
		fact = append(fact, cat(fmt.Sprintf("k%d", i)))
	}
	rels := []Rel{{"Fact", append(fact, cat("fc"), num("fx"), num("fy"))}}
	for i := 0; i < h.Config.Dims; i++ {
		attrs := []relation.Attribute{cat(Partition), cat(fmt.Sprintf("k%d", i)), num(fmt.Sprintf("d%dx", i)), cat(fmt.Sprintf("d%dg", i))}
		if i == 0 && h.Config.Snowflake {
			attrs = append(attrs, cat("s0"))
		}
		rels = append(rels, Rel{fmt.Sprintf("Dim%d", i), attrs})
	}
	if h.Config.Snowflake {
		rels = append(rels, Rel{"Sub0", []relation.Attribute{cat(Partition), cat("s0"), num("sx")}})
	}
	return rels
}

// Cont lists the continuous attributes, Cats the categorical features
// (the cofactor group-by slots) and Response the regression target.
func (h *History) Cont() []string {
	var out []string
	for _, r := range h.Schema() {
		for _, a := range r.Attrs {
			if a.Type == relation.Double {
				out = append(out, a.Name)
			}
		}
	}
	return out
}

func (h *History) Cats() []string { return []string{Partition, "fc", "d0g"} }

const Response = "fy"

// Database returns an empty database with h's schema and the natural
// join of its relations, every category h uses interned in the order
// the history first uses it.
func (h *History) Database() (*relation.Database, *query.Join) {
	db := relation.NewDatabase()
	for _, r := range h.Schema() {
		db.NewRelation(r.Name, r.Attrs)
	}
	h.Intern(db)
	return db, query.NewJoin(db.Relations()...)
}

// Intern interns every category of h into db's dictionaries in the order
// the history first uses it, so two databases interned alike agree on
// every code whatever order rows later reach them in.
func (h *History) Intern(db *relation.Database) {
	attrs := make(map[string][]relation.Attribute)
	for _, r := range h.Schema() {
		attrs[r.Name] = r.Attrs
	}
	for _, s := range h.Steps {
		for _, row := range [][]any{s.Row, s.New} {
			for i, v := range row {
				if str, ok := v.(string); ok {
					db.Dict(attrs[s.Rel][i].Name).Code(str)
				}
			}
		}
	}
}

// Values converts a row into relation values through db's dictionaries.
func Values(db *relation.Database, rel string, row []any) []relation.Value {
	r := db.Relation(rel)
	out := make([]relation.Value, len(row))
	for i, v := range row {
		switch v := v.(type) {
		case string:
			out[i] = relation.CatVal(db.Dict(r.Attrs()[i].Name).Code(v))
		case float64:
			out[i] = relation.FloatVal(v)
		}
	}
	return out
}

// Tallies returns the inserts and deletes the row operations of
// steps[:upto] apply; an update counts once in each.
func (h *History) Tallies(upto int) (ins, del uint64) {
	for _, s := range h.Steps[:upto] {
		switch s.Kind {
		case Insert:
			ins++
		case Delete:
			del++
		case Update:
			ins++
			del++
		}
	}
	return ins, del
}

// Generate draws a history: a grow phase, a churn phase, a drain that
// empties the join (every relation, or the fact table only), then
// growth and churn again. Flushes, holds and (with Replans) replans
// fall between row operations, a replan always followed by a flush;
// every phase ends with a flush and the history with a close.
func Generate(c Config) *History {
	src := xrand.New(c.Seed)
	if c.Steps == 0 {
		c.Steps = 150 + src.Intn(101)
	}
	if c.Dims == 0 {
		c.Dims = 1 + src.Intn(3)
	}
	c.Producers = max(c.Producers, 1)
	h := &History{Config: c}
	g := &generator{h: h, src: src, rels: h.Schema()}
	drainAll := src.Intn(2) == 0
	// phase runs tenths of the row operations, ins% inserts and del%
	// deletes, the rest updates.
	phase := func(tenths, ins, del int) {
		for i := 0; i < c.Steps*tenths/10; i++ {
			g.rowOp(ins, del)
			switch u := src.Intn(100); {
			case u < 8:
				g.add(Step{Kind: Flush})
			case u < 14:
				g.add(Step{Kind: Hold})
			case u < 17 && c.Replans:
				g.add(Step{Kind: Replan}, Step{Kind: Flush})
			}
		}
		g.add(Step{Kind: Flush})
	}
	phase(3, 70, 15)
	phase(3, 40, 40)
	g.drain(drainAll)
	phase(2, 70, 15)
	phase(2, 40, 40)
	g.add(Step{Kind: Close})
	return h
}

type generator struct {
	h    *History
	src  *xrand.Source
	rels []Rel
	live []Step // inserts whose rows are live
}

func (g *generator) add(s ...Step) { g.h.Steps = append(g.h.Steps, s...) }

// row draws a row of r; keep, when non-nil, fixes the partition value.
func (g *generator) row(r Rel, keep any) []any {
	out := make([]any, len(r.Attrs))
	for i, a := range r.Attrs {
		switch {
		case i == 0 && keep != nil:
			out[i] = keep
		case a.Type == relation.Category:
			// A key takes one value in the relation it keys; where it is
			// referenced, one in ten rows draws a second value and dangles.
			n := 3
			switch {
			case a.Name == Partition:
				n = 4
			case a.Name[0] == 'k' && r.Name != "Fact", a.Name == "s0" && r.Name == "Sub0":
				n = 1
			case a.Name[0] == 'k', a.Name == "s0":
				n = 1 + g.src.Intn(10)/9
			}
			out[i] = fmt.Sprintf("%s%d", a.Name, g.src.Intn(n))
		case g.h.Config.Real:
			out[i] = g.src.Float64()*2 - 1
		default:
			out[i] = float64(g.src.Intn(2048)-1024) / 1024
		}
	}
	return out
}

// rowOp adds an insert (ins%), a delete of a live row (del%) or an
// update of one.
func (g *generator) rowOp(ins, del int) {
	u := g.src.Intn(100)
	if u < ins || len(g.live) == 0 {
		r := g.rels[0]
		if g.src.Intn(10) < 6 {
			r = g.rels[1+g.src.Intn(len(g.rels)-1)]
		}
		s := Step{Kind: Insert, Rel: r.Name, Row: g.row(r, nil), By: g.src.Intn(g.h.Config.Producers)}
		g.live = append(g.live, s)
		g.add(s)
		return
	}
	i := g.src.Intn(len(g.live))
	t := g.live[i]
	if u < ins+del {
		g.live[i] = g.live[len(g.live)-1]
		g.live = g.live[:len(g.live)-1]
		g.add(Step{Kind: Delete, Rel: t.Rel, Row: t.Row, By: t.By})
		return
	}
	for _, r := range g.rels {
		if r.Name == t.Rel {
			s := Step{Kind: Update, Rel: t.Rel, Row: t.Row, New: g.row(r, t.Row[0]), By: t.By}
			g.live[i].Row = s.New
			g.add(s)
		}
	}
}

// drain deletes every live row in random order, or only the fact
// table's: either way the join ends empty.
func (g *generator) drain(all bool) {
	g.src.Shuffle(len(g.live), func(i, j int) { g.live[i], g.live[j] = g.live[j], g.live[i] })
	kept := g.live[:0]
	for _, t := range g.live {
		if !all && t.Rel != "Fact" {
			kept = append(kept, t)
			continue
		}
		g.add(Step{Kind: Delete, Rel: t.Rel, Row: t.Row, By: t.By})
	}
	g.live = kept
	g.add(Step{Kind: Flush})
}

// rowKey identifies a row by relation, producer and values.
func rowKey(rel string, by int, row []any) string {
	return fmt.Sprint(rel, by, row)
}

// repaired drops every delete or update whose target its producer does
// not hold live at that point and ends the history with a close, so any
// subsequence of a history is made valid again.
func (h *History) repaired() *History {
	out := &History{Config: h.Config}
	live := make(map[string]int)
	for _, s := range h.Steps {
		switch s.Kind {
		case Close:
			continue
		case Delete, Update:
			k := rowKey(s.Rel, s.By, s.Row)
			if live[k] == 0 {
				continue
			}
			live[k]--
			if s.Kind == Update {
				live[rowKey(s.Rel, s.By, s.New)]++
			}
		case Insert:
			live[rowKey(s.Rel, s.By, s.Row)]++
		}
		out.Steps = append(out.Steps, s)
	}
	out.Steps = append(out.Steps, Step{Kind: Close})
	return out
}

// shrinkBudget bounds the wall-clock time Shrink spends replaying.
var shrinkBudget = 30 * time.Second

// Shrink delta-debugs h down to a history that still fails: it drops
// ever smaller runs of steps, keeping each removal after which the
// repaired history still fails, until no single step can go or
// shrinkBudget has passed; it returns the smallest failing history it
// found. The budget is checked between replays: it cannot end a replay
// that never returns.
func Shrink(h *History, fails func(*History) bool) *History {
	deadline := time.Now().Add(shrinkBudget)
	cur := h.repaired()
	for n := len(cur.Steps) / 2; n >= 1 && time.Now().Before(deadline); {
		removed := false
		for lo := 0; lo < len(cur.Steps)-1 && time.Now().Before(deadline); lo += n {
			hi := min(lo+n, len(cur.Steps)-1)
			try := &History{Config: cur.Config, Steps: append(append([]Step(nil), cur.Steps[:lo]...), cur.Steps[hi:]...)}
			if try = try.repaired(); len(try.Steps) < len(cur.Steps) && fails(try) {
				cur, removed = try, true
				lo -= n
			}
		}
		if !removed {
			n /= 2
		}
	}
	return cur
}

// Run runs check over n histories shaped by c, seeded from name. On a
// failure (a panic counts) it writes the seed and the failure to stderr
// first, so a replay that crashes or hangs while shrinking still names
// them, then shrinks the history and returns an error carrying the
// seed, the failure and the shrunk history as a Go literal. A shrunk
// history that passes when re-run is reported as such, with the
// original history in its place.
func Run(name string, n int, c Config, check func(*History) error) error {
	safe := func(h *History) (err error) {
		defer func() {
			if p := recover(); p != nil {
				err = fmt.Errorf("panic: %v", p)
			}
		}()
		return check(h)
	}
	f := fnv.New64a()
	f.Write([]byte(name))
	for i := 0; i < n; i++ {
		c.Seed = f.Sum64() + uint64(i)
		h := Generate(c)
		if err := safe(h); err != nil {
			fmt.Fprintf(os.Stderr, "testdb: %s: history seed %d (%d steps) failed: %v\ntestdb: shrinking for at most %v\n",
				name, c.Seed, len(h.Steps), err, shrinkBudget)
			small := Shrink(h, func(h *History) bool { return safe(h) != nil })
			if serr := safe(small); serr != nil {
				return fmt.Errorf("history seed %d: %v\nshrunk to %d steps, failing with %v:\n%#v", c.Seed, err, len(small.Steps), serr, small)
			}
			return fmt.Errorf("history seed %d: %v\nthe %d-step shrunk history passed when re-run, so the failure did not reproduce; the original %d steps:\n%#v",
				c.Seed, err, len(small.Steps), len(h.Steps), h)
		}
	}
	return nil
}

// GoString prints h as a Go literal, to paste in as a regression case.
func (h *History) GoString() string {
	var b strings.Builder
	fmt.Fprintf(&b, "&testdb.History{Config: %#v, Steps: []testdb.Step{\n", h.Config)
	lit := func(row []any) string {
		parts := make([]string, len(row))
		for i, v := range row {
			if s, ok := v.(string); ok {
				parts[i] = strconv.Quote(s)
			} else {
				parts[i] = "float64(" + strconv.FormatFloat(v.(float64), 'g', -1, 64) + ")"
			}
		}
		return "[]any{" + strings.Join(parts, ", ") + "}"
	}
	for _, s := range h.Steps {
		fmt.Fprintf(&b, "\t{Kind: testdb.%s", s.Kind)
		if s.Rel != "" {
			fmt.Fprintf(&b, ", Rel: %q, Row: %s", s.Rel, lit(s.Row))
		}
		if s.New != nil {
			fmt.Fprintf(&b, ", New: %s", lit(s.New))
		}
		if s.By != 0 {
			fmt.Fprintf(&b, ", By: %d", s.By)
		}
		b.WriteString("},\n")
	}
	b.WriteString("}}")
	return b.String()
}

// Replay runs h: the row ops before each other step go out through
// send, one goroutine per producer with that producer's ops in order,
// while step(i) runs beside them for a Hold or Replan step and after
// them for a Flush or Close step. It returns the first error.
func (h *History) Replay(send func(ops []Step) error, step func(i int) error) error {
	pending := make([][]Step, h.Config.Producers)
	for i, s := range h.Steps {
		if s.Kind <= Update {
			pending[s.By] = append(pending[s.By], s)
			continue
		}
		errs := make([]error, len(pending)+1)
		var wg sync.WaitGroup
		for p, ops := range pending {
			wg.Add(1)
			go func() { defer wg.Done(); errs[p] = send(ops) }()
		}
		if s.Kind == Hold || s.Kind == Replan {
			errs[len(pending)] = step(i)
		}
		wg.Wait()
		if s.Kind == Flush || s.Kind == Close {
			errs[len(pending)] = step(i)
		}
		if err := errors.Join(errs...); err != nil {
			return err
		}
		pending = make([][]Step, h.Config.Producers)
	}
	return nil
}
