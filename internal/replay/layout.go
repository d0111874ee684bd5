package replay

import (
	"tunio/internal/ioreq"
	"tunio/internal/lustre"
)

// layoutKey is everything a stage-3 lustre layout reads besides the
// phase's extents and the live file state (striping and size, which
// lustre checks on every reuse): the wire plan the phases come from, the
// backend's striping settings (which decide every new file's striping),
// the file system configuration (RAID segment size) and the processes
// per node.
type layoutKey struct {
	wp          *WirePlan
	stripeCount int
	stripeSize  int64
	cfg         lustre.Config
	ppn         int
}

// layoutMemo holds the seed-free lustre layouts of one wire plan under one
// striping: one cell per lustre data phase (each independent transfer and
// each collective round, in replay order). Replays fill the cells as they
// reach them, so a replay aborted by ExecWhile pays only for the phases it
// served and a later full replay completes the memo. A different key
// empties it. Metadata-touch reads are served live: their miss counts
// consume the run seed.
//
// During a replay the memo stands in for the stack's lustre backend in
// the MPI-IO handles, routing each data phase to ServeLayout with its
// cell. Everything seeded — file creation and its metadata op, the first
// OST, the cost model, noise, drift — still happens live, at the same
// point and in the same order.
type layoutMemo struct {
	key   layoutKey
	cells []lustre.Layout
	lb    *lustre.Backend // backend of the stack being replayed
	next  int             // cell of the next data phase
	live  bool            // serve phases without the memo
}

var _ ioreq.Backend = (*layoutMemo)(nil)

// bind prepares the memo for one replay of wp against lb, emptying it
// (keeping its storage) when the key changed.
func (m *layoutMemo) bind(wp *WirePlan, lb *lustre.Backend, ppn int) {
	m.lb, m.next, m.live = lb, 0, false
	if lb == nil {
		return
	}
	key := layoutKey{wp: wp, stripeCount: lb.StripeCount, stripeSize: lb.StripeSize, cfg: lb.FS.Config(), ppn: ppn}
	if key == m.key {
		return
	}
	for i := range m.cells {
		m.cells[i].Reset()
	}
	m.cells = m.cells[:0]
	m.key = key
}

// Name implements ioreq.Backend.
func (m *layoutMemo) Name() string { return m.lb.Name() }

// MetaOps implements ioreq.Backend.
func (m *layoutMemo) MetaOps(n, nclients int) float64 { return m.lb.MetaOps(n, nclients) }

// WritePhase implements ioreq.Backend.
func (m *layoutMemo) WritePhase(name string, extents []ioreq.Extent) float64 {
	return m.phase(name, extents, true)
}

// ReadPhase implements ioreq.Backend.
func (m *layoutMemo) ReadPhase(name string, extents []ioreq.Extent) float64 {
	return m.phase(name, extents, false)
}

func (m *layoutMemo) phase(name string, extents []ioreq.Extent, isWrite bool) float64 {
	if m.live {
		if isWrite {
			return m.lb.WritePhase(name, extents)
		}
		return m.lb.ReadPhase(name, extents)
	}
	if n := len(m.cells); m.next == n {
		// Cells past the length are always reset, so re-slicing reuses
		// their storage.
		if n < cap(m.cells) {
			m.cells = m.cells[:n+1]
		} else {
			m.cells = append(m.cells, lustre.Layout{})
		}
	}
	cell := &m.cells[m.next]
	m.next++
	return m.lb.ServeLayout(name, extents, isWrite, cell)
}
