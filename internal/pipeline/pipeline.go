// Package pipeline models the back-end of the simulated processor: a
// 4-wide, 15-stage machine with a 64-entry register update unit (RUU), as
// configured in Table 2 of the paper. The front-end (package core) delivers
// decoded instructions; the back-end models dispatch, data-dependence-aware
// issue, execution latencies, data-cache accesses, in-order commit, and
// branch resolution, which is when misprediction recovery is triggered.
//
// The model is deliberately simpler than the front-end — the paper's
// contribution is in instruction delivery — but it preserves the properties
// the evaluation depends on: the commit width caps IPC at 4, long-latency
// loads and dependence chains limit achievable IPC per benchmark, the RUU
// fills up and back-pressures fetch, and a mispredicted branch is only
// resolved when it executes, several cycles after it was fetched, so deeper
// effective front-ends (slower caches) pay a larger misprediction penalty.
package pipeline

import (
	"fmt"
	"math/bits"

	"clgp/internal/clock"
	"clgp/internal/isa"
	"clgp/internal/memory"
)

// DynInst is one in-flight dynamic instruction.
type DynInst struct {
	// Static is the decoded static instruction.
	Static *isa.StaticInst
	// Seq is a global sequence number assigned by the front-end.
	Seq uint64
	// WrongPath marks instructions fetched down a mispredicted path; they
	// occupy resources but are never committed.
	WrongPath bool
	// MispredictedBranch marks the branch whose resolution triggers
	// recovery.
	MispredictedBranch bool
	// EffAddr is the effective address for loads and stores.
	EffAddr isa.Addr
	// FetchedAt is the cycle the instruction left the fetch stage.
	FetchedAt uint64

	state instState
	// slot is the instruction's RUU ring slot while it is dispatched: the
	// bit it owns in the scheduler masks.
	slot      uint8
	issueAt   uint64
	completAt uint64
	memReq    *memory.Request
	// deps are the in-flight producers of this instruction's source
	// registers; the instruction may issue only once both have completed.
	// Each reference carries the producer's sequence number so that a
	// producer recycled through a Pool (necessarily committed or squashed,
	// hence done) is recognised and never stalls the consumer.
	deps [2]depRef
}

// depRef is a recycling-safe reference to a producer instruction.
type depRef struct {
	d   *DynInst
	seq uint64
}

// done reports whether the referenced producer has completed by cycle now.
func (r depRef) done(now uint64) bool {
	if r.d == nil || r.d.Seq != r.seq {
		// No producer, or the object was recycled for a younger instruction:
		// the original producer has left the pipeline.
		return true
	}
	return r.d.state == stateCompleted && r.d.completAt <= now
}

// Pool is a free-list of DynInsts. The front-end takes instructions from the
// pool at fetch time and the back-end returns them on commit and squash, so
// the steady-state cycle loop allocates no instruction objects.
type Pool struct {
	free []*DynInst
}

// NewPool creates an empty pool.
func NewPool() *Pool { return &Pool{} }

// Get returns a zeroed DynInst, reusing a released one when available.
func (p *Pool) Get() *DynInst {
	if n := len(p.free); n > 0 {
		d := p.free[n-1]
		p.free = p.free[:n-1]
		*d = DynInst{}
		return d
	}
	return &DynInst{}
}

// Put releases an instruction back to the pool. The caller must not touch it
// afterwards.
func (p *Pool) Put(d *DynInst) {
	if d != nil {
		p.free = append(p.free, d)
	}
}

type instState uint8

const (
	stateDispatched instState = iota
	stateIssued
	stateWaitingMem
	stateCompleted
)

// Config sizes the back-end.
type Config struct {
	// Width is the dispatch/issue/commit width (Table 2: 4).
	Width int
	// RUUSize is the register update unit capacity (Table 2: 64).
	RUUSize int
	// PipelineDepth is the nominal total pipeline depth (Table 2: 15); the
	// portion behind dispatch sets the minimum dispatch-to-execute delay.
	PipelineDepth int
	// FrontEndStages is the number of stages ahead of dispatch (prediction,
	// fetch, decode); the back-end charges the remaining depth.
	FrontEndStages int
}

// DefaultConfig returns the Table 2 back-end configuration.
func DefaultConfig() Config {
	return Config{Width: 4, RUUSize: 64, PipelineDepth: 15, FrontEndStages: 7}
}

func (c Config) normalise() (Config, error) {
	if c.Width <= 0 {
		return c, fmt.Errorf("pipeline: width must be positive, got %d", c.Width)
	}
	if c.RUUSize < c.Width {
		return c, fmt.Errorf("pipeline: RUU size %d smaller than width %d", c.RUUSize, c.Width)
	}
	if c.RUUSize > ruuSlots {
		return c, fmt.Errorf("pipeline: RUU size %d exceeds the %d-entry scheduler mask", c.RUUSize, ruuSlots)
	}
	if c.PipelineDepth <= 0 {
		c.PipelineDepth = 15
	}
	if c.FrontEndStages <= 0 || c.FrontEndStages >= c.PipelineDepth {
		c.FrontEndStages = c.PipelineDepth / 2
	}
	return c, nil
}

// issueDelay is the number of cycles between dispatch and the earliest
// possible issue, representing the rename/schedule stages of the back half
// of the pipeline.
func (c Config) issueDelay() uint64 {
	d := c.PipelineDepth - c.FrontEndStages - 3 // minus execute/writeback/commit
	if d < 1 {
		d = 1
	}
	return uint64(d)
}

// ruuSlots is the RUU ring length and the width of the scheduler masks (one
// bit per ring slot in a uint64); RUUSize may not exceed it.
const (
	ruuSlots = 64
	ruuMask  = ruuSlots - 1
)

// Backend is the back-end model.
type Backend struct {
	cfg Config
	mem *memory.Hierarchy

	// ruu is a fixed ring buffer of in-flight instructions in program order;
	// logical index 0 (at head) is the oldest. A ring keeps dispatch/commit
	// allocation-free, and its fixed 64 slots make ring indexing a mask and
	// let one uint64 hold a bit per slot. Occupancy is capped at RUUSize.
	ruu     [ruuSlots]*DynInst
	ruuHead int
	ruuN    int

	// The scheduler masks, one bit per ring slot, let TickInto visit only
	// the entries that can act. active holds every entry not yet completed;
	// blocked the entries parked because a producer is still in flight;
	// waiters[s] the consumers parked on the producer in slot s. A walk
	// parks a consumer when it finds a producer unfinished, and finish
	// releases the producer's waiters, so a parked entry is never visited
	// until the walk that completes one of its producers.
	active  uint64
	blocked uint64
	waiters [ruuSlots]uint64

	// nextEv and readyNow cache the back-end's event horizon, recomputed by
	// every TickInto from the walk it performs anyway and refined by
	// Dispatch: readyNow records that same-cycle work remained after the tick
	// (a width-limited ready instruction or a committable head), nextEv the
	// earliest future cycle any in-flight instruction acts. NextEvent reads
	// the cache in O(1) instead of re-walking the RUU on every skip attempt.
	nextEv   uint64
	readyNow bool

	// pool, when set, receives committed and squashed instructions so their
	// objects are recycled by the front-end.
	pool *Pool

	// regProducer tracks, per architectural register, the most recently
	// dispatched correct-path instruction that writes it (the scoreboard).
	// References are seq-tagged: see depRef.
	regProducer [isa.NumRegs]depRef

	// statistics
	committed    uint64
	wrongSquash  uint64
	loadsExec    uint64
	storesExec   uint64
	resolvedMisp uint64
}

// New creates a back-end bound to the given memory hierarchy (for data-cache
// accesses; may be nil in unit tests that use no memory instructions).
func New(cfg Config, mem *memory.Hierarchy) (*Backend, error) {
	cfg, err := cfg.normalise()
	if err != nil {
		return nil, err
	}
	return &Backend{cfg: cfg, mem: mem, nextEv: clock.None}, nil
}

// SetPool attaches a DynInst pool; committed and squashed instructions are
// released to it. Without a pool the caller owns released instructions.
func (b *Backend) SetPool(p *Pool) { b.pool = p }

// ruuAt returns the instruction at logical index i (0 = oldest).
func (b *Backend) ruuAt(i int) *DynInst { return b.ruu[(b.ruuHead+i)&ruuMask] }

// MustNew is New but panics on configuration errors.
func MustNew(cfg Config, mem *memory.Hierarchy) *Backend {
	b, err := New(cfg, mem)
	if err != nil {
		panic(err)
	}
	return b
}

// Config returns the normalised configuration.
func (b *Backend) Config() Config { return b.cfg }

// FreeSlots returns how many instructions can currently be dispatched.
func (b *Backend) FreeSlots() int { return b.cfg.RUUSize - b.ruuN }

// Occupancy returns the number of instructions in the RUU.
func (b *Backend) Occupancy() int { return b.ruuN }

// Committed returns the number of committed (correct-path) instructions.
func (b *Backend) Committed() uint64 { return b.committed }

// SquashedWrongPath returns the number of wrong-path instructions removed.
func (b *Backend) SquashedWrongPath() uint64 { return b.wrongSquash }

// ResolvedMispredictions returns how many mispredicted branches resolved.
func (b *Backend) ResolvedMispredictions() uint64 { return b.resolvedMisp }

// Dispatch inserts an instruction into the RUU at cycle now. It returns
// false when the RUU is full (the caller must retry next cycle). At most
// Width instructions should be dispatched per cycle; the caller enforces
// that (it is the same limit as the fetch width).
func (b *Backend) Dispatch(d *DynInst, now uint64) bool {
	if b.ruuN >= b.cfg.RUUSize {
		return false
	}
	d.state = stateDispatched
	d.issueAt = now + b.cfg.issueDelay()
	if !d.WrongPath {
		// Data dependences: remember the in-flight producers of the source
		// registers; issue waits for them to complete.
		if d.Static.Src1 != isa.RegZero {
			d.deps[0] = b.regProducer[d.Static.Src1]
		}
		if d.Static.Src2 != isa.RegZero {
			d.deps[1] = b.regProducer[d.Static.Src2]
		}
		if d.Static.Dst != isa.RegZero {
			b.regProducer[d.Static.Dst] = depRef{d: d, seq: d.Seq}
		}
	}
	slot := (b.ruuHead + b.ruuN) & ruuMask
	b.ruu[slot] = d
	d.slot = uint8(slot)
	b.active |= 1 << slot
	b.ruuN++
	// The new instruction's earliest action is its issue slot; fold it into
	// the cached horizon (dispatch happens after this cycle's TickInto, so
	// the tick's recomputation did not see it).
	b.nextEv = clock.Min(b.nextEv, d.issueAt)
	return true
}

// depsReady reports whether every source producer of d has completed by
// cycle now.
func depsReady(d *DynInst, now uint64) bool {
	return d.deps[0].done(now) && d.deps[1].done(now)
}

// park records that d, past its issue delay, waits on an in-flight producer:
// d leaves the walk until the producer's finish releases it. A consumer
// waiting on two producers parks on both; whichever finishes first releases
// it, and the next visit re-parks it on the other.
func (b *Backend) park(d *DynInst, now uint64) {
	bit := uint64(1) << d.slot
	for _, r := range d.deps {
		if !r.done(now) {
			b.waiters[r.d.slot] |= bit
		}
	}
	b.blocked |= bit
}

// Tick advances execution and commit by one cycle. It returns the
// instructions committed this cycle and, if a mispredicted branch completed
// execution this cycle, that branch (resolution); the caller then flushes
// the front-end and calls SquashWrongPath. Tick allocates the committed
// slice; the core's cycle loop uses TickInto with a reusable buffer instead.
func (b *Backend) Tick(now uint64) (committed []*DynInst, resolved *DynInst) {
	return b.TickInto(now, nil)
}

// TickInto is Tick appending the committed instructions into buf (which may
// be nil) and returning the extended slice. With a buffer of capacity Width
// it performs no allocations. Committed instructions are NOT released to the
// pool — the caller consumes them (stats, training) and releases them.
func (b *Backend) TickInto(now uint64, buf []*DynInst) (committed []*DynInst, resolved *DynInst) {
	committed = buf
	// Idle gate: when the cached horizon proves no entry can issue, release,
	// complete or commit at `now`, the walk is a no-op — skip it. The proof
	// leans on the scheduler's own invariant: a parked entry becomes ready
	// only in the walk that completes its producer (finish releases it), and
	// that walk ran (completions and issue delays are in nextEv, width-blocked
	// and committable entries set readyNow, unscheduled memory requests pin
	// nextEv to the walk's own cycle). Contributions are fixed cycles that
	// never move earlier, so the cache stays never-late across any span of
	// gated cycles; SquashWrongPath leaves the cache stale, so it forces the
	// next walk itself. The per-cycle NoSkip clock mode takes this path too:
	// the gate elides provably dead walks, not cycles, so both clock modes
	// see identical machine states.
	if b.ruuN > 0 && !b.readyNow && b.nextEv > now {
		return committed, nil
	}
	// Issue / execute. The walk visits, in program order, only the entries
	// that can act: active (not completed) and not parked on a producer.
	// Rotating the masks by the ring head puts program order in bit order;
	// the mask is re-read after every entry because a completion releases
	// younger consumers, which can issue in this same cycle. The walk
	// doubles as the horizon recomputation: every entry it visits
	// contributes either "same-cycle work remains" (readyNow) or its next
	// future event, so NextEvent never rescans the RUU. Skipped entries
	// contribute nothing: completed ones are inert, and a parked one's
	// producer contributes its completion.
	nextEv := clock.None
	readyNow := false
	issued := 0
	var seen uint64
walk:
	for {
		pending := bits.RotateLeft64(b.active&^b.blocked, -b.ruuHead) &^ seen
		if pending == 0 {
			break
		}
		i := bits.TrailingZeros64(pending)
		seen = 2<<i - 1 // bits 0..i; wraps to all ones at i = 63
		d := b.ruu[(b.ruuHead+i)&ruuMask]
		switch d.state {
		case stateDispatched:
			if now < d.issueAt {
				// issueAt never decreases in program order, so every younger
				// entry is inside its issue delay too, and none wakes before
				// this one.
				nextEv = clock.Min(nextEv, d.issueAt)
				break walk
			}
			if !depsReady(d, now) {
				b.park(d, now)
				continue
			}
			if issued >= b.cfg.Width {
				// Ready but width-limited: same-cycle work remains.
				readyNow = true
				continue
			}
			issued++
			b.issue(d, now)
			if d.state == stateWaitingMem {
				if d.memReq != nil {
					nextEv = clock.Min(nextEv, d.memReq.NextEvent(now))
				} else {
					readyNow = true
				}
			} else {
				nextEv = clock.Min(nextEv, d.completAt)
			}
		case stateWaitingMem:
			if d.memReq == nil {
				readyNow = true
			} else if d.memReq.Ready(now) {
				if b.mem != nil {
					b.mem.Release(d.memReq)
				}
				d.memReq = nil
				d.completAt = now
				b.finish(d)
			} else {
				nextEv = clock.Min(nextEv, d.memReq.NextEvent(now))
			}
		case stateIssued:
			if now >= d.completAt {
				b.finish(d)
			} else {
				nextEv = clock.Min(nextEv, d.completAt)
			}
		}
		if d.state == stateCompleted && d.MispredictedBranch && resolved == nil && d.completAt == now {
			resolved = d
			b.resolvedMisp++
		}
	}

	// In-order commit of up to Width completed correct-path instructions.
	for b.ruuN > 0 && len(committed)-len(buf) < b.cfg.Width {
		head := b.ruu[b.ruuHead]
		if head.WrongPath || head.state != stateCompleted || head.completAt > now {
			break
		}
		b.ruu[b.ruuHead] = nil
		b.ruuHead = (b.ruuHead + 1) & ruuMask
		b.ruuN--
		b.committed++
		committed = append(committed, head)
	}
	// A still-committable head (width-limited commit, or completed behind the
	// instructions committed above) is same-cycle work.
	if b.ruuN > 0 {
		if head := b.ruu[b.ruuHead]; !head.WrongPath && head.state == stateCompleted {
			readyNow = true
		}
	}
	b.nextEv, b.readyNow = nextEv, readyNow
	return committed, resolved
}

// issue starts execution of d at cycle now.
func (b *Backend) issue(d *DynInst, now uint64) {
	cls := d.Static.Class
	switch {
	case cls == isa.OpLoad:
		b.loadsExec++
		if b.mem != nil && !d.WrongPath {
			d.memReq = b.mem.AccessData(d.EffAddr, now, false)
			d.state = stateWaitingMem
			return
		}
		d.completAt = now + 1
		d.state = stateIssued
	case cls == isa.OpStore:
		b.storesExec++
		if b.mem != nil && !d.WrongPath {
			// Stores complete immediately from the pipeline's perspective;
			// the request is consumed on the spot, so release it right away.
			b.mem.Release(b.mem.AccessData(d.EffAddr, now, true))
		}
		d.completAt = now + 1
		d.state = stateIssued
	default:
		d.completAt = now + uint64(cls.ExecLatency())
		d.state = stateIssued
	}
}

// finish marks d complete: it leaves the active set and releases the
// consumers parked on it.
func (b *Backend) finish(d *DynInst) {
	d.state = stateCompleted
	b.active &^= 1 << d.slot
	b.blocked &^= b.waiters[d.slot]
	b.waiters[d.slot] = 0
}

// NextEvent returns the earliest cycle, at or after now, at which Tick could
// change any back-end state (the clock contract, see package clock). It is
// O(1): TickInto recomputes the horizon during its walk and Dispatch folds in
// new instructions, so no rescan happens here. The cached contributions
// mirror Tick's state machine exactly:
//
//   - a committable head, or a dispatched instruction past its issue delay
//     with completed producers, is same-cycle work (it was only width-limited
//     this cycle) — recorded as readyNow;
//   - dispatched instructions still inside the issue delay wake at issueAt
//     (possibly early, if their producers are slower — harmlessly
//     conservative); the oldest one's issueAt is the earliest, so the walk
//     stops there;
//   - instructions parked on in-flight producers have no event of their
//     own: each producer contributes its completion, and the walk that
//     completes it releases them;
//   - memory-waiting instructions wake when their request's data arrives
//     (a request still contending for the bus reports "now", forcing
//     per-cycle ticks until it is scheduled), executing ones at completAt.
//     Tick stamps completAt with its own cycle on memory completion and
//     detects branch resolution by completAt == now, so never skipping past
//     these horizons is what keeps resolution — and with it every downstream
//     flush — on exactly the per-cycle schedule.
//
// Completed wrong-path instructions are inert until the resolution squash,
// which the mispredicted (correct-path) branch's own completion event covers;
// SquashWrongPath only removes work, so the cache going stale across a squash
// is at worst conservatively early.
func (b *Backend) NextEvent(now uint64) uint64 {
	if b.ruuN == 0 {
		return clock.None
	}
	if b.readyNow || b.nextEv <= now {
		return now
	}
	return b.nextEv
}

// SquashWrongPath removes every wrong-path instruction from the RUU. The
// core calls it when the mispredicted branch resolves. Wrong-path
// instructions are always the youngest — everything dispatched after the
// branch — so the squash truncates that suffix. Squashed instructions are
// released to the pool when one is attached. It returns the number of
// squashed instructions.
func (b *Backend) SquashWrongPath() int {
	n := 0
	for b.ruuN > 0 {
		slot := (b.ruuHead + b.ruuN - 1) & ruuMask
		d := b.ruu[slot]
		if !d.WrongPath {
			break
		}
		// Wrong-path instructions carry no dependences, so none is parked
		// and none has parked consumers.
		b.active &^= 1 << slot
		b.ruu[slot] = nil
		b.ruuN--
		n++
		if b.pool != nil {
			b.pool.Put(d)
		}
	}
	b.wrongSquash += uint64(n)
	// The cached horizon still counts the squashed entries; rather than
	// patch it, force the next TickInto to walk and recompute it.
	b.readyNow = true
	return n
}

// Drained reports whether the RUU is empty.
func (b *Backend) Drained() bool { return b.ruuN == 0 }

// OldestUncommitted returns the sequence number of the oldest instruction in
// the RUU, or 0 and false when empty. Useful for debugging deadlocks.
func (b *Backend) OldestUncommitted() (uint64, bool) {
	if b.ruuN == 0 {
		return 0, false
	}
	return b.ruu[b.ruuHead].Seq, true
}
