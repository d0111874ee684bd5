// Package lustre simulates a Lustre-like parallel file system: a pool of
// object storage targets (OSTs) that files are striped across, plus a
// metadata server (MDS).
//
// The model captures the effects that make Lustre tuning matter in the
// paper's experiments:
//
//   - stripe count decides how many OSTs serve a file in parallel (the
//     Lustre default of 1 is the classic untuned bottleneck);
//   - stripe size decides how extents split into per-OST requests: too
//     small multiplies per-request latency, too large causes imbalance;
//   - writes not aligned to the RAID segment pay a read-modify-write
//     penalty at the OST;
//   - many clients interleaving requests on one OST degrade its effective
//     bandwidth (contention);
//   - every open/create/stat costs an MDS round trip, so metadata storms
//     from thousands of ranks are expensive unless issued collectively.
//
// Phase cost = max(client-side NIC time, slowest OST service time): the
// network transfer and OST service overlap in a pipelined fashion.
package lustre

import (
	"fmt"
	"math/bits"

	"tunio/internal/cluster"
	"tunio/internal/ioreq"
)

// Config describes the file system hardware.
type Config struct {
	OSTs             int
	OSTBandwidth     float64 // bytes/second per OST
	OSTLatency       float64 // seconds per request
	RMWUnit          int64   // RAID segment size; unaligned write edges pay RMW
	MDSLatency       float64 // seconds per metadata op
	MDSParallel      int     // concurrent MDS service streams
	ContentionFactor float64 // bandwidth degradation per extra client on an OST
	MaxContention    float64 // cap on the contention multiplier
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.OSTs <= 0 {
		return fmt.Errorf("lustre: OSTs must be positive, got %d", c.OSTs)
	}
	if c.OSTBandwidth <= 0 || c.OSTLatency < 0 || c.MDSLatency < 0 {
		return fmt.Errorf("lustre: invalid timing constants")
	}
	if c.RMWUnit <= 0 {
		return fmt.Errorf("lustre: RMWUnit must be positive, got %d", c.RMWUnit)
	}
	if c.MDSParallel <= 0 {
		return fmt.Errorf("lustre: MDSParallel must be positive, got %d", c.MDSParallel)
	}
	if c.ContentionFactor < 0 || c.MaxContention < 1 {
		return fmt.Errorf("lustre: invalid contention model")
	}
	return nil
}

// CoriScratch returns a configuration calibrated to Cori's scratch file
// system (~248 OSTs, ~700 GB/s aggregate, DataDirect RAID with 1 MiB
// segments).
func CoriScratch() Config {
	return Config{
		OSTs:             248,
		OSTBandwidth:     2.8e9,
		OSTLatency:       0.4e-3,
		RMWUnit:          1 << 20,
		MDSLatency:       0.25e-3,
		MDSParallel:      4,
		ContentionFactor: 0.015,
		MaxContention:    4,
	}
}

// FS is a simulated Lustre file system bound to one simulation context.
type FS struct {
	cfg   Config
	sim   *cluster.Sim
	files map[string]*File
	// nextOST round-robins the starting OST of new files, like Lustre's
	// allocator spreading files across the pool.
	nextOST int

	// Scratch state reused across layout calls. Access to one FS is
	// serialized (the simulation advances a single clock), so phases never
	// run concurrently; concurrent tuning evaluations each build their own
	// stack and FS.
	scratch phaseScratch
}

// phaseScratch holds the dense accumulators layout reuses call to call,
// replacing the per-call maps that dominated the evaluation hot path.
// Generation stamps mark which entries belong to the current extent or
// phase, so a "reset" is a counter increment rather than a clear.
type phaseScratch struct {
	layout Layout // the live path's layout, recomputed every phase

	// Per-phase load of each stripe slot, indexed by slot; touched keeps
	// first-touch order.
	acc      []slotAcc
	touched  []int32
	phaseGen uint32

	// Per-extent footprint of multi-stripe extents, indexed by slot.
	// footOrder keeps first-touch order: the last touched slot absorbs the
	// payload rounding remainder.
	foot      []footprint
	footOrder []int32
	footGen   uint32

	// Distinct-client stamps, indexed by rank*stripeCount+slot.
	cliEpoch []uint32

	// Per-phase byte totals, indexed by client node.
	nodes []nodeLoad

	// Divisors of the phase being laid out: stripe size, stripe count and
	// RAID segment size.
	stripe, count, unit divisor
}

type slotAcc struct {
	gen uint32
	slotLoad
}

type footprint struct {
	gen   uint32
	span  int64
	edges int64
}

type nodeLoad struct {
	gen   uint32
	bytes int64
}

// grow returns s extended with zero values to cover index n, at least
// doubling it so growth one index at a time stays amortized O(1).
func grow[T any](s []T, n int) []T {
	if n < len(s) {
		return s
	}
	ns := make([]T, max(n+1, 2*len(s)))
	copy(ns, s)
	return ns
}

// divisor divides non-negative values by a positive constant, by shift
// and mask when it is a power of two. Stripe sizes, RAID segments and
// usually stripe counts and processes per node are, and layout divides
// several times per extent: a hardware 64-bit divide costs more than the
// rest of an extent's arithmetic.
type divisor struct {
	d     int64
	mask  int64 // d-1 when d is a power of two, else -1
	shift uint
}

func newDivisor(d int64) divisor {
	v := divisor{d: d, mask: -1}
	if d&(d-1) == 0 {
		v.mask = d - 1
		v.shift = uint(bits.TrailingZeros64(uint64(d)))
	}
	return v
}

func (v divisor) div(x int64) int64 {
	if v.mask >= 0 {
		return x >> v.shift
	}
	return x / v.d
}

func (v divisor) mod(x int64) int64 {
	if v.mask >= 0 {
		return x & v.mask
	}
	return x % v.d
}

// New builds a file system.
func New(cfg Config, sim *cluster.Sim) (*FS, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &FS{cfg: cfg, sim: sim, files: make(map[string]*File)}, nil
}

// Config returns the file system configuration.
func (fs *FS) Config() Config { return fs.cfg }

// File is one striped file.
type File struct {
	fs          *FS
	name        string
	stripeCount int
	stripeSize  int64
	firstOST    int
	size        int64
}

// Create makes (or truncates) a file with the given striping. stripeCount
// is clamped to the OST pool size; stripeCount <= 0 or stripeSize <= 0
// select the Lustre defaults (1 stripe, 1 MiB).
func (fs *FS) Create(name string, stripeCount int, stripeSize int64) (*File, error) {
	if name == "" {
		return nil, fmt.Errorf("lustre: empty file name")
	}
	if stripeCount <= 0 {
		stripeCount = 1
	}
	if stripeCount > fs.cfg.OSTs {
		stripeCount = fs.cfg.OSTs
	}
	if stripeSize <= 0 {
		stripeSize = 1 << 20
	}
	f := &File{
		fs:          fs,
		name:        name,
		stripeCount: stripeCount,
		stripeSize:  stripeSize,
		firstOST:    fs.nextOST,
	}
	fs.nextOST = (fs.nextOST + stripeCount) % fs.cfg.OSTs
	fs.files[name] = f
	fs.MetaOps(1, 1) // create is one MDS op
	return f, nil
}

// Open returns an existing file.
func (fs *FS) Open(name string) (*File, error) {
	f, ok := fs.files[name]
	if !ok {
		return nil, fmt.Errorf("lustre: open %s: no such file", name)
	}
	fs.MetaOps(1, 1)
	return f, nil
}

// Exists reports whether a file was created in this simulation.
func (fs *FS) Exists(name string) bool {
	_, ok := fs.files[name]
	return ok
}

// StripeCount returns the file's stripe count.
func (f *File) StripeCount() int { return f.stripeCount }

// StripeSize returns the file's stripe size in bytes.
func (f *File) StripeSize() int64 { return f.stripeSize }

// Size returns the current file size (high-water mark of writes).
func (f *File) Size() int64 { return f.size }

// Layout is the seed-free half of one data phase: the load its extents
// place on each stripe slot of the file, the bytes the busiest client node
// injects, and the file size the phase leaves behind. It depends only on
// the extents, the direction, the file's striping and size at phase start,
// the RAID segment size and the processes per node. It never reads the
// clock, the RNG, the drift schedule or the OST the file starts on, so one
// layout serves every run that issues the same phase against the same
// striping. Slots are stripe indexes modulo the stripe count; serving maps
// slot s to OST (firstOST+s) % OSTs, which is injective, so per-slot load
// is per-OST load.
//
// The zero value is an empty layout that fits no file.
type Layout struct {
	// File state the layout was computed from.
	stripeCount int
	stripeSize  int64
	sizeBefore  int64

	slots        []slotLoad // touched slots, first-touch order
	maxNodeBytes int64      // payload bytes of the busiest client node
	requests     int64      // OST requests over all slots
	rmw          int64      // read-modify-write bytes over all slots
	appBytes     int64      // payload bytes of the extents
	sizeAfter    int64      // file size after the phase
}

// slotLoad is the load a phase places on one stripe slot.
type slotLoad struct {
	slot     int32
	clients  int32 // distinct ranks touching the slot
	bytes    int64
	requests int64
	rmw      int64
}

// Reset empties the layout, keeping its storage for reuse. An empty layout
// fits no file.
func (l *Layout) Reset() { *l = Layout{slots: l.slots[:0]} }

// fits reports whether l was computed for f's current striping and size.
func (l *Layout) fits(f *File) bool {
	return l.stripeCount == f.stripeCount && l.stripeSize == f.stripeSize && l.sizeBefore == f.size
}

// edgeRMW reports whether a request boundary at off is a read-modify-write
// edge for a file of the given size.
func edgeRMW(off, size int64, unit divisor, trailing bool) bool {
	if unit.mod(off) == 0 {
		return false
	}
	if trailing && off >= size {
		return false // appending past EOF: nothing to read back
	}
	return true
}

// layout computes the seed-free half of a phase of extents against f into
// l, reusing l's storage. It reads f's striping and size but not its first
// OST, and leaves f unchanged. An invalid extent empties l and is reported.
func (f *File) layout(l *Layout, extents []ioreq.Extent, isWrite bool) error {
	*l = Layout{
		stripeCount: f.stripeCount,
		stripeSize:  f.stripeSize,
		sizeBefore:  f.size,
		sizeAfter:   f.size,
		slots:       l.slots[:0],
	}
	if len(extents) == 0 {
		return nil
	}
	sp := &f.fs.scratch
	sp.phaseGen++
	gen := sp.phaseGen
	sc := f.stripeCount
	sp.acc = grow(sp.acc, sc-1)
	sp.touched = sp.touched[:0]
	sp.foot = grow(sp.foot, sc-1)
	sp.stripe = newDivisor(f.stripeSize)
	sp.count = newDivisor(int64(sc))
	sp.unit = newDivisor(f.fs.cfg.RMWUnit)

	ppn := newDivisor(int64(f.fs.sim.Cluster.ProcsPerNode))
	size := f.size
	for _, e := range extents {
		if err := e.Validate(); err != nil {
			l.Reset()
			return err
		}
		l.appBytes += e.Size
		node := int(ppn.div(int64(e.Rank)))
		if node >= len(sp.nodes) {
			sp.nodes = grow(sp.nodes, node)
		}
		// Node totals only grow, so the running maximum is the final one.
		n := &sp.nodes[node]
		if n.gen != gen {
			n.gen = gen
			n.bytes = 0
		}
		n.bytes += e.Size
		if n.bytes > l.maxNodeBytes {
			l.maxNodeBytes = n.bytes
		}
		spanLen := e.SpanLen()
		end := e.Offset + spanLen
		if stripe := sp.stripe.div(e.Offset); stripe == sp.stripe.div(end-1) {
			// One stripe holds the whole extent (the common case): a
			// single piece carries all of its payload and requests.
			var edges int64
			if edgeRMW(e.Offset, size, sp.unit, false) {
				edges++
			}
			if edgeRMW(end, size, sp.unit, true) {
				edges++
			}
			f.charge(int(sp.count.mod(stripe)), e.Size, e.Requests(), e.Rank, edges, isWrite)
		} else {
			f.split(e, size, isWrite)
		}
		if isWrite && e.End() > size {
			size = e.End()
		}
	}
	l.sizeAfter = size
	for _, slot := range sp.touched {
		s := sp.acc[slot].slotLoad
		l.slots = append(l.slots, s)
		l.requests += s.requests
		l.rmw += s.rmw
	}
	return nil
}

// split charges an extent crossing stripe boundaries to the stripe slots
// it touches (layout charges single-stripe extents itself). The
// extent's geometric footprint (SpanLen) decides which stripes are
// touched; its payload bytes are spread over those stripes in proportion
// to footprint overlap, and its sub-request count distributes with the
// payload. Extents spanning many stripe cycles aggregate into one piece
// per participating slot so cost stays O(stripeCount) rather than
// O(stripes). size is the file size the extent meets (for trailing RMW
// edges).
func (f *File) split(e ioreq.Extent, size int64, isWrite bool) {
	sp := &f.fs.scratch
	ss := f.stripeSize
	sc := int64(f.stripeCount)
	spanLen := e.SpanLen()
	end := e.Offset + spanLen
	firstStripe := sp.stripe.div(e.Offset)
	lastStripe := sp.stripe.div(end - 1)
	nStripes := lastStripe - firstStripe + 1

	// Collect the geometric footprint per slot first, in first-touch order.
	sp.footGen++
	gen := sp.footGen
	sp.footOrder = sp.footOrder[:0]
	add := func(slot int, span, edges int64) {
		ft := &sp.foot[slot]
		if ft.gen != gen {
			*ft = footprint{gen: gen}
			sp.footOrder = append(sp.footOrder, int32(slot))
		}
		ft.span += span
		ft.edges += edges
	}

	if nStripes <= 2*sc {
		// exact per-stripe walk for small spans; the slot and in-stripe
		// position advance incrementally (no div/mod per stripe)
		off := e.Offset
		remaining := spanLen
		slot := int(sp.count.mod(firstStripe))
		avail := ss - sp.stripe.mod(off)
		for remaining > 0 {
			n := remaining
			if n > avail {
				n = avail
			}
			var edges int64
			if edgeRMW(off, size, sp.unit, false) {
				edges++
			}
			if edgeRMW(off+n, size, sp.unit, true) {
				edges++
			}
			add(slot, n, edges)
			off += n
			remaining -= n
			if slot++; slot == int(sc) {
				slot = 0
			}
			avail = ss
		}
	} else {
		// aggregated path: head/tail partial stripes plus evenly
		// distributed full stripes
		headBytes := int64(0)
		if rem := sp.stripe.mod(e.Offset); rem != 0 {
			headBytes = ss - rem
		}
		tailBytes := sp.stripe.mod(end)
		fullFirst, fullLast := firstStripe, lastStripe
		if headBytes > 0 {
			fullFirst++
		}
		if tailBytes > 0 {
			fullLast--
		}
		fullCount := fullLast - fullFirst + 1
		if headBytes > 0 {
			var edges int64
			if edgeRMW(e.Offset, size, sp.unit, false) {
				edges++
			}
			add(int(sp.count.mod(firstStripe)), headBytes, edges)
		}
		if tailBytes > 0 {
			var edges int64
			if edgeRMW(end, size, sp.unit, true) {
				edges++
			}
			add(int(sp.count.mod(lastStripe)), tailBytes, edges)
		}
		base := fullCount / sc
		extra := fullCount % sc
		slot := int(sp.count.mod(fullFirst))
		for i := int64(0); i < sc && i < fullCount; i++ {
			cnt := base
			if i < extra {
				cnt++
			}
			if cnt > 0 {
				add(slot, cnt*ss, 0)
			}
			if slot++; slot == int(sc) {
				slot = 0
			}
		}
	}

	// Convert footprint to payload: spread Size bytes and Count requests
	// proportionally, conserving totals exactly (the last touched slot
	// absorbs the rounding remainder).
	// Before the last slot every span is below spanLen, so a single
	// request rounds to zero and a dense extent (payload = footprint)
	// whose products cannot overflow keeps its spans: both skip a divide.
	var assignedBytes, assignedReqs int64
	reqs := e.Requests()
	dense := e.Size == spanLen && e.Size <= maxExactSquare
	for i, slot := range sp.footOrder {
		ft := &sp.foot[slot]
		var psize, preqs int64
		if dense {
			psize = ft.span
		} else {
			psize = ft.span * e.Size / spanLen
		}
		if reqs > 1 {
			preqs = ft.span * reqs / spanLen
		}
		if i == len(sp.footOrder)-1 {
			psize = e.Size - assignedBytes
			preqs = reqs - assignedReqs
		}
		assignedBytes += psize
		assignedReqs += preqs
		if psize <= 0 {
			continue
		}
		if preqs < 1 {
			preqs = 1
		}
		f.charge(int(slot), psize, preqs, e.Rank, ft.edges, isWrite)
	}
}

// maxExactSquare is the largest n with n*n <= MaxInt64.
const maxExactSquare = 3037000499

// charge adds one piece — size payload bytes in reqs requests from rank,
// with edges unaligned request edges — to a stripe slot's phase load.
func (f *File) charge(slot int, size, reqs int64, rank int, edges int64, isWrite bool) {
	sp := &f.fs.scratch
	gen := sp.phaseGen
	s := &sp.acc[slot]
	if s.gen != gen {
		*s = slotAcc{gen: gen, slotLoad: slotLoad{slot: int32(slot)}}
		sp.touched = append(sp.touched, int32(slot))
	}
	s.bytes += size
	s.requests += reqs
	// One row of stamps per rank, so growing keeps the phase's stamps
	// in place.
	c := rank*f.stripeCount + slot
	if c >= len(sp.cliEpoch) {
		sp.cliEpoch = grow(sp.cliEpoch, c)
	}
	if sp.cliEpoch[c] != gen {
		sp.cliEpoch[c] = gen
		s.clients++
	}
	if isWrite {
		subSize := size
		if reqs > 1 {
			if subSize = size / reqs; subSize == 0 {
				subSize = size
			}
			// Strided sub-requests smaller than the RAID segment pay
			// interior RMW; sequential write combining absorbs half.
			if sp.unit.mod(subSize) != 0 {
				edges += reqs / 2
			}
		}
		s.rmw += edges * min(sp.unit.d, subSize)
	}
}

// serve charges a layout to the simulation and returns the elapsed
// simulated time: it maps each slot to its OST through the file's first
// OST, runs the cost model, perturbs and advances the clock, updates the
// darshan counters, and sets the file size the phase leaves behind.
func (f *File) serve(l *Layout, isWrite bool) float64 {
	if len(l.slots) == 0 {
		return 0
	}
	f.size = l.sizeAfter

	// Slowest OST bounds the storage side. Under a drift schedule the
	// phase samples the machine once at its start time: background OST
	// load and per-regime degraded OSTs divide effective bandwidth, and
	// contention phases scale the per-extra-client factor. The nil-drift
	// path charges the exact historical expressions.
	cfg := f.fs.cfg
	dr := f.fs.sim.Cluster.Drift
	var at, cScale float64
	if dr != nil {
		at = f.fs.sim.Time()
		cScale = dr.ContentionScale(at)
	}
	ostTime := 0.0
	for i := range l.slots {
		s := &l.slots[i]
		contention := 1 + cfg.ContentionFactor*float64(s.clients-1)
		if dr != nil {
			contention = 1 + cfg.ContentionFactor*cScale*float64(s.clients-1)
		}
		if contention > cfg.MaxContention {
			contention = cfg.MaxContention
		}
		bw := cfg.OSTBandwidth
		if dr != nil {
			bw *= dr.OSTFactor(at, (f.firstOST+int(s.slot))%cfg.OSTs, cfg.OSTs)
		}
		t := float64(s.requests)*cfg.OSTLatency +
			float64(s.bytes+s.rmw)/bw*contention
		if t > ostTime {
			ostTime = t
		}
	}

	// Client NIC side: the busiest node's injection time (division by the
	// bandwidth is monotone, so the busiest node is the slowest).
	nicBW := f.fs.sim.Cluster.NICBandwidth
	if dr != nil {
		nicBW *= dr.NICFactor(at)
	}
	nicTime := float64(l.maxNodeBytes) / nicBW

	elapsed := ostTime
	if nicTime > elapsed {
		elapsed = nicTime
	}
	elapsed += cfg.OSTLatency // pipeline fill
	elapsed = f.fs.sim.Perturb(elapsed)
	f.fs.sim.Advance(elapsed)

	lc := f.fs.sim.Report.Layer("lustre")
	if isWrite {
		lc.WriteOps += l.requests
		lc.BytesWritten += l.appBytes
		lc.BytesRead += l.rmw // RMW causes OST-side reads
		lc.WriteTime += elapsed
	} else {
		lc.ReadOps += l.requests
		lc.BytesRead += l.appBytes
		lc.ReadTime += elapsed
	}
	return elapsed
}

// phase services a set of extents and returns the elapsed simulated time.
func (f *File) phase(extents []ioreq.Extent, isWrite bool) (float64, error) {
	l := &f.fs.scratch.layout
	if err := f.layout(l, extents, isWrite); err != nil {
		return 0, err
	}
	return f.serve(l, isWrite), nil
}

// WritePhase implements ioreq.Backend semantics for this file.
func (f *File) WritePhase(extents []ioreq.Extent) (float64, error) {
	return f.phase(extents, true)
}

// ReadPhase services concurrent reads.
func (f *File) ReadPhase(extents []ioreq.Extent) (float64, error) {
	return f.phase(extents, false)
}

// MetaOps services n metadata operations issued by nclients concurrent
// clients and returns the elapsed time. The MDS serializes operations over
// MDSParallel service streams.
func (fs *FS) MetaOps(n, nclients int) float64 {
	if n <= 0 {
		return 0
	}
	if nclients < 1 {
		nclients = 1
	}
	d := float64(n)*fs.cfg.MDSLatency/float64(fs.cfg.MDSParallel) + fs.sim.Cluster.NICLatency
	if dr := fs.sim.Cluster.Drift; dr != nil {
		// Background metadata traffic divides MDS service capacity.
		d = float64(n)*fs.cfg.MDSLatency/(float64(fs.cfg.MDSParallel)*dr.MDSFactor(fs.sim.Time())) + fs.sim.Cluster.NICLatency
	}
	d = fs.sim.Perturb(d)
	fs.sim.Advance(d)
	fs.sim.Report.AddMeta("lustre", int64(n), d)
	return d
}

// Backend adapts FS to the ioreq.Backend interface, resolving files by
// name. Phases against unknown files create them with the FS's default or
// per-call striping settings recorded via SetDefaultStriping.
type Backend struct {
	FS          *FS
	StripeCount int
	StripeSize  int64
}

var _ ioreq.Backend = (*Backend)(nil)

// Name implements ioreq.Backend.
func (b *Backend) Name() string { return "lustre" }

func (b *Backend) file(name string) *File {
	if f, ok := b.FS.files[name]; ok {
		return f
	}
	f, err := b.FS.Create(name, b.StripeCount, b.StripeSize)
	if err != nil {
		panic("lustre: backend create: " + err.Error())
	}
	return f
}

// WritePhase implements ioreq.Backend.
func (b *Backend) WritePhase(name string, extents []ioreq.Extent) float64 {
	d, err := b.file(name).WritePhase(extents)
	if err != nil {
		panic("lustre: " + err.Error())
	}
	return d
}

// ReadPhase implements ioreq.Backend.
func (b *Backend) ReadPhase(name string, extents []ioreq.Extent) float64 {
	d, err := b.file(name).ReadPhase(extents)
	if err != nil {
		panic("lustre: " + err.Error())
	}
	return d
}

// ServeLayout services a data phase on the named file like WritePhase or
// ReadPhase, reusing memo across calls: when memo holds a layout computed
// for the file's current striping and size it is served as is; otherwise
// the phase's layout is computed into memo first. A memo must only ever be
// passed for one phase — the same extents in the same direction, such as
// one position of a replayed plan — since the extents are not checked.
func (b *Backend) ServeLayout(name string, extents []ioreq.Extent, isWrite bool, memo *Layout) float64 {
	f := b.file(name)
	if !memo.fits(f) {
		if err := f.layout(memo, extents, isWrite); err != nil {
			panic("lustre: " + err.Error())
		}
	}
	return f.serve(memo, isWrite)
}

// MetaOps implements ioreq.Backend.
func (b *Backend) MetaOps(n, nclients int) float64 {
	return b.FS.MetaOps(n, nclients)
}
