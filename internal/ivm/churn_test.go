package ivm

import (
	"testing"

	"borg/internal/datagen"
	"borg/internal/exec"
	"borg/internal/relation"
	"borg/internal/xrand"
)

// churn is a preloaded F-IVM maintainer plus a stationary op stream
// over it, shaped like benchmarks/e2e's churnGen: inserts re-send rows
// of the generated fact table, deletes and updates target live tuples,
// and inserts equal deletes so the live set keeps its size. Rows are
// materialized once, so generating a batch allocates only the batch.
type churn struct {
	m    *FIVM
	rng  *xrand.Source
	fact string
	rows [][]relation.Value // every generated fact row
	live []int32            // fact rows live, with repetition
	// keep names the fact column an update must preserve (-1: none), as
	// a store-partitioned server demands; byKeep lists the fact rows per
	// value of it.
	keep   int
	byKeep map[int32][]int32
	// dim is the dimension table that takes updates: row i flips between
	// dimRows[i] and its nudged version.
	dim     string
	dimRows [2][][]relation.Value
	dimVer  []uint8
}

// newChurn streams the whole dataset into a fresh F-IVM maintainer
// (dimensions first) and returns the generator over it.
func newChurn(tb testing.TB, d *datagen.Dataset, features []string, keep, dim, nudge string, workers int, opts ...Option) *churn {
	tb.Helper()
	m, err := NewFIVM(d.Join, d.Root, features, opts...)
	if err != nil {
		tb.Fatal(err)
	}
	if workers > 1 {
		pool := exec.NewPool(workers)
		tb.Cleanup(pool.Close)
		m.SetRuntime(exec.Runtime{Workers: workers, Pool: pool})
	}
	c := &churn{m: m, rng: xrand.New(7), fact: d.Root, keep: -1, dim: dim}
	var ops []Op
	for _, name := range d.StreamOrder {
		rel := d.DB.Relation(name)
		for i := 0; i < rel.NumRows(); i++ {
			vals := rel.Row(i)
			ops = append(ops, Op{Kind: OpInsert, Tuple: Tuple{Rel: name, Values: vals}})
			switch name {
			case d.Root:
				c.rows = append(c.rows, vals)
				c.live = append(c.live, int32(i))
			case dim:
				col := rel.AttrIndex(nudge)
				alt := rel.Row(i)
				alt[col].F = alt[col].F*1.0625 + 0.5
				c.dimRows[0] = append(c.dimRows[0], vals)
				c.dimRows[1] = append(c.dimRows[1], alt)
			}
		}
	}
	c.dimVer = make([]uint8, len(c.dimRows[0]))
	if keep != "" {
		c.keep = d.DB.Relation(d.Root).AttrIndex(keep)
		c.byKeep = make(map[int32][]int32)
		for i, vals := range c.rows {
			c.byKeep[vals[c.keep].C] = append(c.byKeep[vals[c.keep].C], int32(i))
		}
	}
	for lo := 0; lo < len(ops); lo += 4096 {
		if res := m.ApplyBatch(ops[lo:min(lo+4096, len(ops))]); res.Err != nil {
			tb.Fatal(res.Err)
		}
	}
	return c
}

// batch generates the next n ops: insert/delete/update shares 42/42/16,
// with dimShare of all ops turned into updates of one dimension row.
func (c *churn) batch(n int, dimShare float64) []Op {
	ops := make([]Op, 0, n)
	fact := func(r int32) Tuple { return Tuple{Rel: c.fact, Values: c.rows[r]} }
	for len(ops) < n {
		u := c.rng.Float64()
		switch {
		case u < dimShare:
			i := c.rng.Intn(len(c.dimVer))
			old := c.dimRows[c.dimVer[i]][i]
			c.dimVer[i] ^= 1
			ops = append(ops, Op{Kind: OpUpdate, Old: Tuple{Rel: c.dim, Values: old},
				Tuple: Tuple{Rel: c.dim, Values: c.dimRows[c.dimVer[i]][i]}})
		case u < dimShare+0.42*(1-dimShare):
			r := int32(c.rng.Intn(len(c.rows)))
			c.live = append(c.live, r)
			ops = append(ops, Op{Kind: OpInsert, Tuple: fact(r)})
		case u < dimShare+0.84*(1-dimShare):
			p := c.rng.Intn(len(c.live))
			ops = append(ops, Op{Kind: OpDelete, Tuple: fact(c.live[p])})
			c.live[p] = c.live[len(c.live)-1]
			c.live = c.live[:len(c.live)-1]
		default:
			p := c.rng.Intn(len(c.live))
			old := c.live[p]
			r := int32(c.rng.Intn(len(c.rows)))
			if c.keep >= 0 {
				from := c.byKeep[c.rows[old][c.keep].C]
				r = from[c.rng.Intn(len(from))]
			}
			c.live[p] = r
			ops = append(ops, Op{Kind: OpUpdate, Old: fact(old), Tuple: fact(r)})
		}
	}
	return ops
}

// apply runs one batch and fails the test on any failed op.
func (c *churn) apply(tb testing.TB, ops []Op) {
	if res := c.m.ApplyBatch(ops); res.Err != nil || res.FullyFailed != 0 {
		tb.Fatalf("churn batch: %d failed, err %v", res.FullyFailed, res.Err)
	}
}

func retailerChurn(tb testing.TB, sf float64, workers int) *churn {
	d := datagen.Retailer(2020, sf)
	return newChurn(tb, d, append(append([]string(nil), d.Cont...), d.Response), "", "Weather", "maxtemp", workers)
}

func tenantChurn(tb testing.TB, workers int) *churn {
	d := datagen.Tenant(2020, 1)
	return newChurn(tb, d, []string{"price", "sellarea", "footfall", "units", "item", "store"},
		"store", "", "", workers, WithPayload(PayloadCofactor))
}

// BenchmarkFIVMApplyBatch measures one 64-op ApplyBatch — the unit the
// serving writer applies — over the two churn mixes of benchmarks/e2e:
// covar over Retailer sf=1 (42/42/14 Inventory + 2% Weather updates)
// and cofactor over Tenant (42/42/16, updates keep the store). Reported
// per op.
func BenchmarkFIVMApplyBatch(b *testing.B) {
	const batch = 64
	for _, bc := range []struct {
		name     string
		mk       func(testing.TB, int) *churn
		dimShare float64
	}{
		{"covar", func(tb testing.TB, w int) *churn { return retailerChurn(tb, 1, w) }, 0.02},
		{"cofactor", tenantChurn, 0},
	} {
		b.Run(bc.name, func(b *testing.B) {
			c := bc.mk(b, 1)
			for i := 0; i < 200; i++ { // steady state: buffers and tables at size
				c.apply(b, c.batch(batch, bc.dimShare))
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i += batch {
				b.StopTimer()
				ops := c.batch(batch, bc.dimShare)
				b.StartTimer()
				c.apply(b, ops)
			}
		})
	}
}

// TestCovarApplyBatchAllocsBounded pins the allocation cost of the
// covar delta path. Steady-state Inventory churn on Retailer sf=0.1
// allocates at most 0.05 objects per op at every batch size: the row
// locator and every edge index are relation.Index chains, linked by row
// id and headed in an open-addressed key table, so a new key costs a
// table slot and no index ever allocates a bucket; ring temporaries and
// effect lists are recycled, and a root tuple's contribution is added
// to the result in place by one fused product. A batch of Weather
// updates fans out through computeEffects over the Inventory rows of
// each reading: a reading's retracted values drain their Weather
// entries and its new values are born again. A view is a slab of flat
// records, so a birth copies the delta into a drained record and
// allocates nothing; the pin of at most 0.1 per op leaves room for the
// slab or its key table growing. Before slabs each birth cloned an
// element, 2.00 objects per op. Once a Weather update has built
// Inventory's (locn, dateid) edge index, Inventory churn maintains it
// too, the mix of benchmarks/e2e's retailer_churn: at most 0.01 per op
// (0.03 when the index kept a bucket per key, whose births then
// allocated).
func TestCovarApplyBatchAllocsBounded(t *testing.T) {
	for _, workers := range []int{1, 2} {
		c := retailerChurn(t, 0.1, workers)
		for _, tc := range []struct {
			name      string
			batch     int
			dimShare  float64
			perOp     float64
			buildEdge bool
		}{
			{"Inventory churn", 64, 0, 0.05, false},
			{"Inventory churn", 25, 0, 0.05, false},
			{"Inventory churn", 8, 0, 0.05, false},
			{"Inventory churn", 1, 0, 0.05, false},
			{"Inventory churn, Weather edge built", 64, 0, 0.01, true},
			{"Weather updates", 64, 1, 0.1, false},
		} {
			if tc.buildEdge {
				c.apply(t, c.batch(1, 1))
				if c.m.nodes[0].childIndexes[c.m.byName["Weather"].childPos] == nil {
					t.Fatalf("workers=%d: a Weather update built no Weather edge index", workers)
				}
			}
			got := churnAllocsPerOp(t, c, tc.batch, tc.dimShare)
			t.Logf("workers=%d %s ×%d: %.2f allocs/op", workers, tc.name, tc.batch, got)
			if got > tc.perOp {
				t.Errorf("workers=%d %s ×%d: %.2f allocs/op, want ≤ %v", workers, tc.name, tc.batch, got, tc.perOp)
			}
		}
	}
}

// TestCofactorApplyBatchAllocsBounded pins the same for the cofactor
// payload over Tenant churn, at any batch size: a tuple's lift, products
// and negation are computed into recycled elements, a view element's
// birth takes a record a pruned group left or grows its slab in place,
// and the root logs into chunks that recycle when no epoch is held. It
// reads 0.00 at every batch size; the bound leaves room for a rare slab
// growth, no more. benchmarks/e2e's tenant_cofactor_2shard depends on it: at
// twice the garbage a GC cycle ran during most ingest rounds instead of
// a minority, and its median flipped between the two from run to run.
func TestCofactorApplyBatchAllocsBounded(t *testing.T) {
	c := tenantChurn(t, 1)
	for _, batch := range []int{64, 25, 8, 1} {
		got := churnAllocsPerOp(t, c, batch, 0)
		t.Logf("Tenant churn ×%d: %.4f allocs/op", batch, got)
		if got > 0.01 {
			t.Errorf("Tenant churn ×%d: %.4f allocs/op, want ≤ 0.01", batch, got)
		}
	}
}

// churnAllocsPerOp reports what one op of a steady-state batch of the
// given size allocates.
func churnAllocsPerOp(t *testing.T, c *churn, batch int, dimShare float64) float64 {
	const runs = 20
	for i := 0; i < 50; i++ {
		c.apply(t, c.batch(64, dimShare))
	}
	batches, next := make([][]Op, runs+1), 0 // AllocsPerRun calls once to warm up
	for i := range batches {
		batches[i] = c.batch(batch, dimShare)
	}
	return testing.AllocsPerRun(runs, func() {
		c.apply(t, batches[next])
		next++
	}) / float64(batch)
}
