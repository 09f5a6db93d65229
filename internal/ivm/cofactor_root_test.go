package ivm

import (
	"math"
	"reflect"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"borg/internal/datagen"
	"borg/internal/exec"
	"borg/internal/ring"
	"borg/internal/xrand"
)

// cowRoot is the retired cofactor root, kept as the reference: a sorted
// run of groups written in place, published by sharing every group with
// the epoch and copying a group before the first write after a
// publication (copy-on-write). Keys are the groups' per-slot codes,
// compared as unsigned slots, which is the ring's word order.
type cowRoot struct {
	n     int
	to    []int
	keys  [][]int32
	vals  []*ring.Covar
	fresh []bool // vals[i] was allocated since the last publication
	// reborn counts the births, since the last publication, of groups
	// that died in that span (dead).
	reborn int
	dead   map[string]bool
}

// cowEpoch is one publication of a cowRoot.
type cowEpoch struct {
	keys [][]int32
	vals []*ring.Covar
}

func compareCodes(a, b []int32) int {
	return slices.CompareFunc(a, b, func(x, y int32) int {
		switch {
		case uint32(x) < uint32(y):
			return -1
		case uint32(x) > uint32(y):
			return 1
		}
		return 0
	})
}

// add folds one root delta into the run, as the retired Cofactor.add did.
func (r *cowRoot) add(delta *ring.Cofactor) {
	delta.Each(func(codes []int32, g *ring.Covar) {
		i, ok := slices.BinarySearchFunc(r.keys, codes, compareCodes)
		if !ok {
			born := g.Clone()
			if r.to != nil {
				born = ring.CovarRing{N: r.n}.Zero()
				born.AddMapped(g, r.to)
			}
			r.keys, r.vals = slices.Insert(r.keys, i, slices.Clone(codes)), slices.Insert(r.vals, i, born)
			r.fresh = slices.Insert(r.fresh, i, true)
			if r.dead[string(fmtCodes(codes))] {
				r.reborn++
			}
			return
		}
		if !r.fresh[i] {
			r.vals[i], r.fresh[i] = r.vals[i].Clone(), true
		}
		r.vals[i].AddMapped(g, r.to)
		if r.vals[i].IsZero() {
			r.keys, r.vals, r.fresh = slices.Delete(r.keys, i, i+1), slices.Delete(r.vals, i, i+1), slices.Delete(r.fresh, i, i+1)
			r.dead[string(fmtCodes(codes))] = true
		}
	})
}

func fmtCodes(codes []int32) []byte {
	var b []byte
	for _, c := range codes {
		b = append(b, byte(c), byte(c>>8), byte(c>>16), byte(c>>24))
	}
	return b
}

// publish shares every group with the returned epoch.
func (r *cowRoot) publish() cowEpoch {
	clear(r.fresh)
	clear(r.dead)
	r.reborn = 0
	return cowEpoch{keys: slices.Clone(r.keys), vals: slices.Clone(r.vals)}
}

// merge is the sorted merge CofactorRing.Add makes of two epochs.
func (a cowEpoch) merge(b cowEpoch, n int) cowEpoch {
	var out cowEpoch
	i, j := 0, 0
	for i < len(a.keys) || j < len(b.keys) {
		c := 0
		switch {
		case j == len(b.keys):
			c = -1
		case i == len(a.keys):
			c = 1
		default:
			c = compareCodes(a.keys[i], b.keys[j])
		}
		switch {
		case c < 0:
			out.keys, out.vals = append(out.keys, a.keys[i]), append(out.vals, a.vals[i])
			i++
		case c > 0:
			out.keys, out.vals = append(out.keys, b.keys[j]), append(out.vals, b.vals[j])
			j++
		default:
			if s := (ring.CovarRing{N: n}).Add(a.vals[i], b.vals[j]); !s.IsZero() {
				out.keys, out.vals = append(out.keys, a.keys[i]), append(out.vals, s)
			}
			i, j = i+1, j+1
		}
	}
	return out
}

// bits flattens the epoch as cofactorBits flattens an element.
func (a cowEpoch) bits() []uint64 {
	var out []uint64
	for i, g := range a.vals {
		for _, c := range a.keys[i] {
			out = append(out, uint64(uint32(c)))
		}
		out = append(out, math.Float64bits(g.Count))
		for _, v := range append(slices.Clone(g.Sum), g.Q...) {
			out = append(out, math.Float64bits(v))
		}
	}
	return out
}

// marginal sums the groups in key order, as Cofactor.MarginalInto does.
func (a cowEpoch) marginal(n int) *ring.Covar {
	m := ring.CovarRing{N: n}.Zero()
	for _, g := range a.vals {
		m.AddInPlace(g)
	}
	return m
}

// cofactorChurn is a Tenant stream for cofactor roots: every relation
// inserted in stream order but the sales of one group in four, every
// third inserted sale retracted, then each held-back group born, killed
// and born again by its first sale (inserted, retracted, inserted: an
// exact cancellation even on real data) before its other sales arrive.
// round maps each float to an integer, for integer data.
func cofactorChurn(round bool) (*datagen.Dataset, []Op) {
	ds := datagen.Tenant(7, 0.05)
	var stream []Op
	var sales []Tuple
	held := map[[2]int32][]Tuple{}
	var order [][2]int32
	for _, name := range ds.StreamOrder {
		for _, r := range ds.Join.Relations {
			for i := 0; r.Name == name && i < r.NumRows(); i++ {
				vals := r.Row(i)
				if round {
					for c := range vals {
						vals[c].F = math.Round(vals[c].F)
					}
				}
				tu := Tuple{Rel: name, Values: vals}
				// Sales columns: store, item, units; a group is a (store, item) pair.
				if g := [2]int32{vals[0].C, vals[1].C}; name == "Sales" && (g[0]*25+g[1])%4 == 0 {
					if held[g] == nil {
						order = append(order, g)
					}
					held[g] = append(held[g], tu)
					continue
				}
				stream = append(stream, Op{Tuple: tu})
				if name == "Sales" {
					sales = append(sales, tu)
				}
			}
		}
	}
	for i := 0; i < len(sales); i += 3 {
		stream = append(stream, Op{Kind: OpDelete, Tuple: sales[i]})
	}
	for _, g := range order {
		first := held[g][0]
		stream = append(stream, Op{Tuple: first}, Op{Kind: OpDelete, Tuple: first})
		for _, tu := range held[g] {
			stream = append(stream, Op{Tuple: tu})
		}
	}
	return ds, stream
}

// baseOf identifies the base a maintainer's cofactor epoch reads, to
// count folds.
func baseOf(p *Published) uintptr { return reflect.ValueOf(p.epoch).FieldByName("base").Pointer() }

// TestCofactorRootMatchesCopyOnWriteOracle holds the published cofactor
// epochs of F-IVM, at 1 and 2 shards publishing every 64 ops of a
// Tenant churn, to the retired copy-on-write root fed the same root
// deltas: every epoch's element is bitwise the oracle's at the same op,
// read only after the maintainers have moved on (so every later append
// and fold ran first), and its triple — the running marginal — is
// within 1e-12 of the oracle's key-order marginal, bitwise on integer
// data. The stream must fold each root at least three times and kill
// and rebirth groups between two publications with no fold in between.
func TestCofactorRootMatchesCopyOnWriteOracle(t *testing.T) {
	for _, round := range []bool{false, true} {
		ds, stream := cofactorChurn(round)
		feats := []string{"units", "price", "sellarea", "footfall", "store", "item"}
		for _, shards := range []int{1, 2} {
			ms, oracles := make([]*FIVM, shards), make([]*cowRoot, shards)
			for i := range ms {
				m, err := NewFIVM(ds.Join, ds.Root, feats, WithPayload(PayloadCofactor))
				if err != nil {
					t.Fatal(err)
				}
				m.SetRuntime(exec.Runtime{Workers: 2, MorselSize: 8})
				o := &cowRoot{n: len(m.contFeats), to: m.slotOf, dead: map[string]bool{}}
				emit := m.cf.emit
				m.cf.emit = func(res, delta *ring.Cofactor) { emit(res, delta); o.add(delta) }
				ms[i], oracles[i] = m, o
			}
			type epoch struct {
				pub  *Published
				want cowEpoch
			}
			var epochs []epoch
			folds, reborn := make([]int, shards), 0
			var prev []*Published
			for lo := 0; lo < len(stream); lo += 64 {
				ops := stream[lo:min(lo+64, len(stream))]
				parts, wants := make([]*Published, shards), make([]cowEpoch, shards)
				for i, m := range ms {
					var mine []Op
					for _, o := range ops {
						if int(o.Tuple.Values[0].C)%shards == i {
							mine = append(mine, o)
						}
					}
					if res := m.ApplyBatch(mine); res.Err != nil {
						t.Fatal(res.Err)
					}
					parts[i] = new(Published)
					m.PublishInto(parts[i])
					if prev != nil {
						if baseOf(prev[i]) != baseOf(parts[i]) {
							folds[i]++
						} else {
							reborn += oracles[i].reborn
						}
					}
					wants[i] = oracles[i].publish()
					epochs = append(epochs, epoch{parts[i], wants[i]})
				}
				prev = parts
				if shards > 1 {
					merged := new(Published)
					Merge(merged, parts)
					epochs = append(epochs, epoch{merged, wants[0].merge(wants[1], len(ms[0].contFeats))})
				}
			}
			if slices.Min(folds) < 3 || reborn == 0 {
				t.Fatalf("round %v, %d shards: folds %v, %d groups reborn inside a log window; want ≥ 3 folds and some", round, shards, folds, reborn)
			}
			for k, e := range epochs {
				got := e.pub.Cofactor()
				if !slices.Equal(cofactorBits(got), e.want.bits()) {
					t.Fatalf("round %v, %d shards, epoch %d: element (%d groups) differs from the oracle's (%d groups)", round, shards, k, got.NumGroups(), len(e.want.keys))
				}
				want := e.want.marginal(len(ms[0].contFeats))
				if round && !slices.Equal(triBits(e.pub.Stats()), triBits(want)) {
					t.Fatalf("round %v, %d shards, epoch %d: triple %v, want the key-order marginal %v bitwise", round, shards, k, e.pub.Stats(), want)
				}
				if !e.pub.Stats().ApproxEqual(want, 1e-12) {
					t.Fatalf("round %v, %d shards, epoch %d: triple %v, want within 1e-12 of %v", round, shards, k, e.pub.Stats(), want)
				}
			}
			t.Logf("round %v, %d shards: %d epochs, folds %v, %d groups reborn inside a log window", round, shards, len(epochs), folds, reborn)
		}
	}
}

// triBits flattens a triple's raw float bits.
func triBits(c *ring.Covar) []uint64 {
	out := []uint64{math.Float64bits(c.Count)}
	for _, v := range append(slices.Clone(c.Sum), c.Q...) {
		out = append(out, math.Float64bits(v))
	}
	return out
}

// TestCofactorFirstReadMaterializesOnce races eight readers on the first
// element read of one cofactor epoch while the writer keeps appending
// to the log and folds it: all eight see one element, bitwise the value
// at publication, and exactly one materialization runs.
func TestCofactorFirstReadMaterializesOnce(t *testing.T) {
	_, j := intStar()
	m, err := NewFIVM(j, "Fact", append(slices.Clone(intStarFeatures), "k0", "k1"), WithPayload(PayloadCofactor))
	if err != nil {
		t.Fatal(err)
	}
	src := xrand.New(5)
	batch := func() []Op {
		ops := make([]Op, 64)
		for i := range ops {
			ops[i] = Op{Tuple: randomTuple(src)}
		}
		return ops
	}
	for i := 0; i < 8; i++ {
		m.ApplyBatch(batch())
	}
	pub := new(Published)
	m.PublishInto(pub)
	want := cofactorBits(m.SnapshotCofactor())
	var materializations atomic.Int32
	onMaterialize = func() { materializations.Add(1) }
	defer func() { onMaterialize = nil }()

	seen := make([]*ring.Cofactor, 8)
	start, done := make(chan struct{}), make(chan struct{})
	var wg sync.WaitGroup
	for r := range seen {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			seen[r] = pub.Cofactor()
		}()
	}
	folds := 0
	go func() {
		defer close(done)
		base := baseOf(pub)
		close(start)
		for i := 0; i < 40 || folds < 2; i++ {
			m.ApplyBatch(batch())
			next := new(Published)
			m.PublishInto(next)
			if b := baseOf(next); b != base {
				folds, base = folds+1, b
			}
		}
	}()
	wg.Wait()
	<-done
	if n := materializations.Load(); n != 1 {
		t.Fatalf("%d materializations of one epoch, want 1", n)
	}
	for r, got := range seen {
		if got != seen[0] || !slices.Equal(cofactorBits(got), want) {
			t.Fatalf("reader %d saw a different element", r)
		}
	}
	if folds < 2 {
		t.Fatalf("the writer folded %d times, want 2", folds)
	}
}
