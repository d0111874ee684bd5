package lustre

import (
	"math"
	"testing"

	"tunio/internal/cluster"
	"tunio/internal/ioreq"
)

func newSim(t *testing.T, nodes, ppn int) *cluster.Sim {
	t.Helper()
	c := cluster.CoriHaswell(nodes, ppn)
	c.Noise = 0
	s, err := cluster.NewSim(c, 1)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func newFS(t *testing.T, sim *cluster.Sim) *FS {
	t.Helper()
	fs, err := New(CoriScratch(), sim)
	if err != nil {
		t.Fatal(err)
	}
	return fs
}

func TestConfigValidate(t *testing.T) {
	good := CoriScratch()
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	cases := []func(*Config){
		func(c *Config) { c.OSTs = 0 },
		func(c *Config) { c.OSTBandwidth = 0 },
		func(c *Config) { c.RMWUnit = 0 },
		func(c *Config) { c.MDSParallel = 0 },
		func(c *Config) { c.MaxContention = 0.5 },
		func(c *Config) { c.ContentionFactor = -1 },
	}
	for i, mut := range cases {
		c := CoriScratch()
		mut(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: want error", i)
		}
	}
}

func TestCreateDefaultsAndClamping(t *testing.T) {
	fs := newFS(t, newSim(t, 4, 32))
	f, err := fs.Create("a", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if f.StripeCount() != 1 || f.StripeSize() != 1<<20 {
		t.Fatalf("defaults: count=%d size=%d", f.StripeCount(), f.StripeSize())
	}
	f2, _ := fs.Create("b", 10000, 1<<20)
	if f2.StripeCount() != fs.Config().OSTs {
		t.Fatalf("stripe count not clamped: %d", f2.StripeCount())
	}
	if _, err := fs.Create("", 1, 1); err == nil {
		t.Fatal("empty name: want error")
	}
}

func TestOpen(t *testing.T) {
	fs := newFS(t, newSim(t, 4, 32))
	if _, err := fs.Open("missing"); err == nil {
		t.Fatal("want error for missing file")
	}
	fs.Create("x", 4, 1<<20)
	if !fs.Exists("x") {
		t.Fatal("Exists false after Create")
	}
	if _, err := fs.Open("x"); err != nil {
		t.Fatal(err)
	}
}

func TestStripingSpeedsUpLargeWrites(t *testing.T) {
	// The same 1 GiB phase must be much faster on 32 stripes than 1 when
	// the NIC is not the bottleneck (use many nodes).
	mkTime := func(stripes int) float64 {
		sim := newSim(t, 64, 2)
		fs := newFS(t, sim)
		f, _ := fs.Create("f", stripes, 1<<20)
		var extents []ioreq.Extent
		const per = 8 << 20
		for r := 0; r < 128; r++ {
			extents = append(extents, ioreq.Extent{Offset: int64(r) * per, Size: per, Rank: r})
		}
		d, err := f.WritePhase(extents)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	t1 := mkTime(1)
	t32 := mkTime(32)
	if t32 >= t1/4 {
		t.Fatalf("striping 32 gave %.4fs vs 1-stripe %.4fs, want >= 4x speedup", t32, t1)
	}
}

func TestAlignedWritesAvoidRMW(t *testing.T) {
	run := func(offset int64) int64 {
		sim := newSim(t, 4, 32)
		fs := newFS(t, sim)
		f, _ := fs.Create("f", 4, 1<<20)
		// pre-size the file so trailing-edge RMW applies
		f.WritePhase([]ioreq.Extent{{Offset: 0, Size: 64 << 20, Rank: 0}})
		before := sim.Report.Layer("lustre").BytesRead
		f.WritePhase([]ioreq.Extent{{Offset: offset, Size: 1 << 20, Rank: 1}})
		return sim.Report.Layer("lustre").BytesRead - before
	}
	if rmw := run(4 << 20); rmw != 0 {
		t.Fatalf("aligned write caused %d RMW bytes", rmw)
	}
	if rmw := run(4<<20 + 4096); rmw == 0 {
		t.Fatal("unaligned write caused no RMW")
	}
}

func TestSmallStripesCostMoreRequests(t *testing.T) {
	reqs := func(stripeSize int64) int64 {
		sim := newSim(t, 4, 32)
		fs := newFS(t, sim)
		f, _ := fs.Create("f", 8, stripeSize)
		f.WritePhase([]ioreq.Extent{{Offset: 0, Size: 64 << 20, Rank: 0}})
		return sim.Report.Layer("lustre").WriteOps
	}
	small := reqs(64 << 10)
	large := reqs(16 << 20)
	if small <= large {
		t.Fatalf("64KiB stripes made %d requests, 16MiB made %d; want more for small", small, large)
	}
}

func TestContentionDegradesSharedOST(t *testing.T) {
	// Many clients writing to a 1-stripe file must be slower per byte than
	// one client writing the same total.
	run := func(clients int) float64 {
		sim := newSim(t, 64, 2)
		fs := newFS(t, sim)
		f, _ := fs.Create("f", 1, 1<<20)
		total := int64(256 << 20)
		per := total / int64(clients)
		var extents []ioreq.Extent
		for r := 0; r < clients; r++ {
			extents = append(extents, ioreq.Extent{Offset: int64(r) * per, Size: per, Rank: r})
		}
		d, _ := f.WritePhase(extents)
		return d
	}
	if one, many := run(1), run(64); many <= one {
		t.Fatalf("64 clients (%.4fs) not slower than 1 (%.4fs)", many, one)
	}
}

func TestPhaseAdvancesClockAndCounters(t *testing.T) {
	sim := newSim(t, 4, 32)
	fs := newFS(t, sim)
	f, _ := fs.Create("f", 4, 1<<20)
	before := sim.Now()
	d, err := f.WritePhase([]ioreq.Extent{{Offset: 0, Size: 1 << 20, Rank: 0}})
	if err != nil {
		t.Fatal(err)
	}
	if d <= 0 || math.Abs(sim.Now()-before-d) > 1e-12 {
		t.Fatalf("elapsed %v, clock moved %v", d, sim.Now()-before)
	}
	lc := sim.Report.Layer("lustre")
	if lc.BytesWritten != 1<<20 || lc.WriteOps == 0 {
		t.Fatalf("counters: %+v", lc)
	}
	if f.Size() != 1<<20 {
		t.Fatalf("file size = %d", f.Size())
	}
}

func TestReadPhase(t *testing.T) {
	sim := newSim(t, 4, 32)
	fs := newFS(t, sim)
	f, _ := fs.Create("f", 4, 1<<20)
	f.WritePhase([]ioreq.Extent{{Offset: 0, Size: 8 << 20, Rank: 0}})
	d, err := f.ReadPhase([]ioreq.Extent{{Offset: 0, Size: 8 << 20, Rank: 1}})
	if err != nil || d <= 0 {
		t.Fatalf("ReadPhase: %v, %v", d, err)
	}
	if sim.Report.Layer("lustre").BytesRead != 8<<20 {
		t.Fatalf("read bytes = %d", sim.Report.Layer("lustre").BytesRead)
	}
}

func TestInvalidExtentRejected(t *testing.T) {
	sim := newSim(t, 4, 32)
	fs := newFS(t, sim)
	f, _ := fs.Create("f", 4, 1<<20)
	if _, err := f.WritePhase([]ioreq.Extent{{Offset: -1, Size: 4}}); err == nil {
		t.Fatal("want error")
	}
	if d, err := f.WritePhase(nil); err != nil || d != 0 {
		t.Fatal("empty phase should be free")
	}
}

func TestMetaOps(t *testing.T) {
	sim := newSim(t, 4, 32)
	fs := newFS(t, sim)
	if fs.MetaOps(0, 1) != 0 {
		t.Fatal("zero ops should be free")
	}
	d1 := fs.MetaOps(1, 1)
	d100 := fs.MetaOps(100, 128)
	if d100 <= d1 {
		t.Fatalf("100 meta ops (%.6fs) not slower than 1 (%.6fs)", d100, d1)
	}
	// create + 101 explicit
	if got := sim.Report.Layer("lustre").MetaOps; got != 101 {
		t.Fatalf("meta ops counted = %d", got)
	}
}

func TestBackendAutoCreates(t *testing.T) {
	sim := newSim(t, 4, 32)
	fs := newFS(t, sim)
	b := &Backend{FS: fs, StripeCount: 8, StripeSize: 2 << 20}
	d := b.WritePhase("auto", []ioreq.Extent{{Offset: 0, Size: 1 << 20, Rank: 0}})
	if d <= 0 {
		t.Fatal("backend write did not charge time")
	}
	f, err := fs.Open("auto")
	if err != nil {
		t.Fatal(err)
	}
	if f.StripeCount() != 8 || f.StripeSize() != 2<<20 {
		t.Fatalf("auto-created striping: %d/%d", f.StripeCount(), f.StripeSize())
	}
	if b.Name() != "lustre" {
		t.Fatal("backend name")
	}
	if b.ReadPhase("auto", []ioreq.Extent{{Offset: 0, Size: 100, Rank: 0}}) <= 0 {
		t.Fatal("backend read free")
	}
	if b.MetaOps(1, 1) <= 0 {
		t.Fatal("backend meta free")
	}
}

func TestFilesStartOnDifferentOSTs(t *testing.T) {
	sim := newSim(t, 4, 32)
	fs := newFS(t, sim)
	a, _ := fs.Create("a", 4, 1<<20)
	b, _ := fs.Create("b", 4, 1<<20)
	if a.firstOST == b.firstOST {
		t.Fatal("allocator did not round-robin starting OSTs")
	}
}

// splitOne lays out a single-extent write phase and returns its per-slot
// loads.
func splitOne(t *testing.T, f *File, e ioreq.Extent) []slotLoad {
	t.Helper()
	var l Layout
	if err := f.layout(&l, []ioreq.Extent{e}, true); err != nil {
		t.Fatal(err)
	}
	return l.slots
}

func TestSplitCrossesStripes(t *testing.T) {
	sim := newSim(t, 4, 32)
	fs := newFS(t, sim)
	f, _ := fs.Create("f", 4, 1<<20)
	slots := splitOne(t, f, ioreq.Extent{Offset: 512 << 10, Size: 2 << 20, Rank: 0})
	if len(slots) != 3 {
		t.Fatalf("split produced %d slots, want 3 (partial + full + partial)", len(slots))
	}
	var total int64
	osts := map[int]bool{}
	for _, s := range slots {
		total += s.bytes
		osts[(f.firstOST+int(s.slot))%fs.Config().OSTs] = true
	}
	if total != 2<<20 {
		t.Fatalf("split lost bytes: %d", total)
	}
	if len(osts) != 3 {
		t.Fatalf("pieces landed on %d OSTs, want 3", len(osts))
	}
}

func TestSplitAggregatedPathConservesBytes(t *testing.T) {
	sim := newSim(t, 4, 32)
	fs := newFS(t, sim)
	f, _ := fs.Create("f", 8, 64<<10) // small stripes force the aggregated path
	e := ioreq.Extent{Offset: 12345, Size: 512 << 20, Rank: 3, Count: 64}
	slots := splitOne(t, f, e)
	if len(slots) > 8 {
		t.Fatalf("aggregated split produced %d slots, want <= stripe count 8", len(slots))
	}
	var total, reqs int64
	for _, s := range slots {
		total += s.bytes
		reqs += s.requests
		if s.clients != 1 {
			t.Fatalf("slot %d counts %d clients, want the one rank", s.slot, s.clients)
		}
	}
	if total != 512<<20 {
		t.Fatalf("split lost bytes: %d of %d", total, 512<<20)
	}
	if reqs < 8 || reqs > 80 {
		t.Fatalf("requests distributed oddly: %d (extent had 64)", reqs)
	}
}

func TestSplitExactVsAggregatedConsistency(t *testing.T) {
	// The same extent split with a small stripe span (exact path) and the
	// same total via aggregation must agree on per-OST byte totals.
	sim := newSim(t, 4, 32)
	fs := newFS(t, sim)
	f, _ := fs.Create("f", 4, 1<<20)
	// 9 stripes: aggregated path (9 > 2*4); compare against manual walk.
	e := ioreq.Extent{Offset: 0, Size: 9 << 20, Rank: 0}
	got := map[int]int64{}
	for _, s := range splitOne(t, f, e) {
		got[(f.firstOST+int(s.slot))%fs.Config().OSTs] += s.bytes
	}
	want := map[int]int64{}
	for s := int64(0); s < 9; s++ {
		ost := (f.firstOST + int(s%4)) % fs.Config().OSTs
		want[ost] += 1 << 20
	}
	for ost, b := range want {
		if got[ost] != b {
			t.Fatalf("OST %d: got %d bytes, want %d (got map %v)", ost, got[ost], b, got)
		}
	}
}

// TestServeLayoutReusesAcrossFirstOST pins that a layout is independent of
// the OST a file starts on: computed against a file on one FS and served
// against the same phase of a file starting on other OSTs, it charges
// exactly what the live phase charges there — under a drift schedule with
// degraded OSTs, where the absolute OST matters. A layout computed for
// another file size is recomputed, not reused.
func TestServeLayoutReusesAcrossFirstOST(t *testing.T) {
	drifted := func() *cluster.Sim {
		c := cluster.CoriHaswell(4, 32)
		c.Drift = &cluster.Drift{Seed: 5, Regimes: []cluster.Regime{
			{Start: 0, OSTLoad: 0.3, SlowOSTs: 60, Contention: 2}}}
		s, err := cluster.NewSim(c, 9)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	phases := [][]ioreq.Extent{
		{{Offset: 0, Size: 3 << 20, Rank: 0}, {Offset: 3 << 20, Size: 5 << 20, Rank: 40, Count: 7}},
		{{Offset: 1000, Size: 40 << 20, Rank: 3, Count: 64, Span: 48 << 20}},
	}
	run := func(shift bool, memo []Layout) (*cluster.Sim, []float64) {
		sim := drifted()
		b := &Backend{FS: newFS(t, sim), StripeCount: 6, StripeSize: 1 << 20}
		if shift {
			b.FS.Create("other", 17, 1<<20) // moves the next file's first OST
		}
		var out []float64
		for i, ext := range phases {
			if memo == nil {
				out = append(out, b.WritePhase("f", ext))
			} else {
				out = append(out, b.ServeLayout("f", ext, true, &memo[i]))
			}
		}
		return sim, out
	}

	memo := make([]Layout, len(phases))
	run(false, memo) // fill the memo against a file starting on OST 0
	for i := range memo {
		if len(memo[i].slots) == 0 {
			t.Fatalf("phase %d: memo not filled", i)
		}
	}
	liveSim, live := run(true, nil)
	memoSim, served := run(true, memo)
	for i := range live {
		if live[i] != served[i] {
			t.Errorf("phase %d: served %v, live %v", i, served[i], live[i])
		}
	}
	if liveSim.Now() != memoSim.Now() || *liveSim.Report.Layer("lustre") != *memoSim.Report.Layer("lustre") {
		t.Errorf("reused layouts diverge:\n live %+v\n memo %+v", *liveSim.Report.Layer("lustre"), *memoSim.Report.Layer("lustre"))
	}

	// A memo computed for a different file size no longer fits and is
	// recomputed in place: the second phase laid out against the 8 MiB
	// the first one wrote pays a trailing RMW edge inside the file, which
	// the same phase issued first on an empty file does not.
	grown := []ioreq.Extent{{Offset: 1000, Size: 3<<20 + 5, Rank: 2}}
	var stale Layout
	sim := drifted()
	b := &Backend{FS: newFS(t, sim), StripeCount: 6, StripeSize: 1 << 20}
	b.WritePhase("f", phases[0])
	b.ServeLayout("f", grown, true, &stale)
	sim = drifted()
	b = &Backend{FS: newFS(t, sim), StripeCount: 6, StripeSize: 1 << 20}
	ref := drifted()
	rb := &Backend{FS: newFS(t, ref), StripeCount: 6, StripeSize: 1 << 20}
	if got, want := b.ServeLayout("f", grown, true, &stale), rb.WritePhase("f", grown); got != want {
		t.Fatalf("stale memo served %v, live %v", got, want)
	}
	if *sim.Report.Layer("lustre") != *ref.Report.Layer("lustre") {
		t.Fatalf("stale memo counters %+v, live %+v", *sim.Report.Layer("lustre"), *ref.Report.Layer("lustre"))
	}
}
