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

// DynInst is one in-flight dynamic instruction. It holds no Go pointer:
// instructions live by value in the back-end's window, so the cycle loop
// moves and updates them without GC write barriers.
type DynInst struct {
	// Static is the decoded static instruction.
	Static isa.StaticInst
	// OffImage marks a wrong-path fetch that ran off the program image;
	// Static is then the synthetic nop (see SetStatic).
	OffImage bool
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

	state     instState
	issueAt   uint64
	completAt uint64
	// deps are the in-flight producers of this instruction's source
	// registers; the instruction may issue only once both have completed.
	deps [2]depRef
}

// offImageNop is the static instruction of a wrong-path fetch that ran off
// the program image: a no-op with no register operands.
var offImageNop = isa.StaticInst{Class: isa.OpNop, Src1: isa.RegZero, Src2: isa.RegZero, Dst: isa.RegZero}

// SetStatic copies the static instruction si into d, or the synthetic nop
// (with OffImage set) when si is nil — a wrong-path fetch off the image.
func (d *DynInst) SetStatic(si *isa.StaticInst) {
	if si == nil {
		d.Static, d.OffImage = offImageNop, true
		return
	}
	d.Static, d.OffImage = *si, false
}

// depRef references a producer by its window position. The reference carries
// the producer's sequence number, so a position since reused by a younger
// instruction (the producer committed, hence done) is recognised and never
// stalls the consumer.
type depRef struct {
	pos    uint8
	linked bool
	seq    uint64
}

// done reports whether the referenced producer has completed by cycle now.
func (r depRef) done(win *[winSlots]DynInst, now uint64) bool {
	if !r.linked {
		return true // no producer
	}
	p := &win[r.pos]
	if p.Seq != r.seq {
		// The position was reused by a younger instruction: the producer
		// has left the pipeline.
		return true
	}
	return p.state == stateCompleted && p.completAt <= now
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

// The instruction window: a fixed ring of winSlots DynInst values holding,
// in program order, the RUU (at most ruuSlots entries) followed by the
// fetched-but-not-dispatched instructions (at most FetchQueueCap). The RUU
// never spans more than ruuSlots consecutive positions, so pos&ruuMask is a
// distinct scheduler bit per RUU entry and one uint64 holds a bit per entry.
const (
	ruuSlots = 64
	ruuMask  = ruuSlots - 1
	winSlots = 2 * ruuSlots
	winMask  = winSlots - 1

	// FetchQueueCap bounds the fetched-but-not-dispatched segment of the
	// window (the front-end's dispatch queue).
	FetchQueueCap = winSlots - ruuSlots
)

// Backend is the back-end model.
type Backend struct {
	cfg Config
	mem *memory.Hierarchy

	// win is the instruction window: positions [head, head+ruuN) are the
	// RUU, oldest first, and [head+ruuN, head+ruuN+fetchN) the fetched
	// instructions waiting for dispatch. Instructions enter by FetchSlot,
	// cross into the RUU by Dispatch (which moves the boundary and copies
	// nothing) and leave by commit or squash, all in program order, so one
	// ring holds every in-flight instruction by value.
	win    [winSlots]DynInst
	head   int
	ruuN   int
	fetchN int
	// committedN is how many instructions the last TickInto committed; they
	// sit just behind head until FetchSlot reuses their positions.
	committedN int

	// memReq holds, per scheduler bit, the data-cache request of a load
	// waiting on memory (nil otherwise): the one pointer an in-flight
	// instruction needs, kept out of the window.
	memReq [ruuSlots]*memory.Request

	// The scheduler masks, one bit per RUU entry (pos&ruuMask), let TickInto
	// visit only the entries that can act. active holds every entry not yet
	// completed; blocked the entries parked because a producer is still in
	// flight; waiters[s] the consumers parked on the producer in bit s. A
	// walk parks a consumer when it finds a producer unfinished, and finish
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

// Fetched returns the number of fetched instructions waiting for dispatch.
func (b *Backend) Fetched() int { return b.fetchN }

// Committed returns the number of committed (correct-path) instructions.
func (b *Backend) Committed() uint64 { return b.committed }

// SquashedWrongPath returns the number of wrong-path instructions removed.
func (b *Backend) SquashedWrongPath() uint64 { return b.wrongSquash }

// ResolvedMispredictions returns how many mispredicted branches resolved.
func (b *Backend) ResolvedMispredictions() uint64 { return b.resolvedMisp }

// FetchSlot appends one zeroed instruction to the fetched segment and returns
// it for the front-end to fill; it stays valid until the instruction leaves
// the window. At most FetchQueueCap instructions may wait for dispatch.
func (b *Backend) FetchSlot() *DynInst {
	if b.fetchN >= FetchQueueCap {
		panic("pipeline: fetch queue overflow")
	}
	d := &b.win[(b.head+b.ruuN+b.fetchN)&winMask]
	*d = DynInst{}
	b.fetchN++
	return d
}

// Dispatch moves the oldest fetched instruction into the RUU at cycle now. It
// returns false when nothing is fetched or the RUU is full (the caller must
// retry next cycle). At most Width instructions should be dispatched per
// cycle; the caller enforces that (it is the same limit as the fetch width).
func (b *Backend) Dispatch(now uint64) bool {
	if b.fetchN == 0 || b.ruuN >= b.cfg.RUUSize {
		return false
	}
	pos := (b.head + b.ruuN) & winMask
	d := &b.win[pos]
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
			b.regProducer[d.Static.Dst] = depRef{pos: uint8(pos), linked: true, seq: d.Seq}
		}
	}
	b.active |= 1 << (pos & ruuMask)
	b.ruuN++
	b.fetchN--
	// The new instruction's earliest action is its issue slot; fold it into
	// the cached horizon (dispatch happens after this cycle's TickInto, so
	// the tick's recomputation did not see it).
	b.nextEv = clock.Min(b.nextEv, d.issueAt)
	return true
}

// depsReady reports whether every source producer of d has completed by
// cycle now.
func (b *Backend) depsReady(d *DynInst, now uint64) bool {
	return d.deps[0].done(&b.win, now) && d.deps[1].done(&b.win, now)
}

// park records that d, whose scheduler mask bit is bit, past its issue delay
// waits on an in-flight producer: d leaves the walk until the producer's
// finish releases it. A consumer waiting on two producers parks on both; whichever finishes
// first releases it, and the next visit re-parks it on the other.
func (b *Backend) park(d *DynInst, bit uint64, now uint64) {
	for _, r := range d.deps {
		if !r.done(&b.win, now) {
			b.waiters[r.pos&ruuMask] |= bit
		}
	}
	b.blocked |= bit
}

// TickInto advances execution and commit by one cycle. It returns how many
// instructions committed this cycle (read them with CommittedAt) and whether
// a mispredicted branch completed execution this cycle (resolution); the
// caller then flushes the front-end and calls SquashWrongPath.
func (b *Backend) TickInto(now uint64) (committed int, resolved bool) {
	b.committedN = 0
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
		return 0, false
	}
	// Issue / execute. The walk visits, in program order, only the entries
	// that can act: active (not completed) and not parked on a producer.
	// Rotating the masks by the head's bit puts program order in bit order;
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
		pending := bits.RotateLeft64(b.active&^b.blocked, -b.head) &^ seen
		if pending == 0 {
			break
		}
		i := bits.TrailingZeros64(pending)
		seen = 2<<i - 1 // bits 0..i; wraps to all ones at i = 63
		pos := (b.head + i) & winMask
		s := pos & ruuMask
		bit := uint64(1) << s
		d := &b.win[pos]
		switch d.state {
		case stateDispatched:
			if now < d.issueAt {
				// issueAt never decreases in program order, so every younger
				// entry is inside its issue delay too, and none wakes before
				// this one.
				nextEv = clock.Min(nextEv, d.issueAt)
				break walk
			}
			if !b.depsReady(d, now) {
				b.park(d, bit, now)
				continue
			}
			if issued >= b.cfg.Width {
				// Ready but width-limited: same-cycle work remains.
				readyNow = true
				continue
			}
			issued++
			b.issue(d, s, now)
			if d.state == stateWaitingMem {
				if req := b.memReq[s]; req != nil {
					nextEv = clock.Min(nextEv, req.NextEvent(now))
				} else {
					readyNow = true
				}
			} else {
				nextEv = clock.Min(nextEv, d.completAt)
			}
		case stateWaitingMem:
			if req := b.memReq[s]; req == nil {
				readyNow = true
			} else if req.Ready(now) {
				if b.mem != nil {
					b.mem.Release(req)
				}
				b.memReq[s] = nil
				d.completAt = now
				b.finish(d, s)
			} else {
				nextEv = clock.Min(nextEv, req.NextEvent(now))
			}
		case stateIssued:
			if now >= d.completAt {
				b.finish(d, s)
			} else {
				nextEv = clock.Min(nextEv, d.completAt)
			}
		}
		if d.state == stateCompleted && d.MispredictedBranch && !resolved && d.completAt == now {
			resolved = true
			b.resolvedMisp++
		}
	}

	// In-order commit of up to Width completed correct-path instructions.
	for b.ruuN > 0 && committed < b.cfg.Width {
		head := &b.win[b.head]
		if head.WrongPath || head.state != stateCompleted || head.completAt > now {
			break
		}
		b.head = (b.head + 1) & winMask
		b.ruuN--
		b.committed++
		committed++
	}
	b.committedN = committed
	// A still-committable head (width-limited commit, or completed behind the
	// instructions committed above) is same-cycle work.
	if b.ruuN > 0 {
		if head := &b.win[b.head]; !head.WrongPath && head.state == stateCompleted {
			readyNow = true
		}
	}
	b.nextEv, b.readyNow = nextEv, readyNow
	return committed, resolved
}

// CommittedAt returns the i-th (oldest first) of the instructions the last
// TickInto committed. It is valid until the next FetchSlot, which may reuse
// the position.
func (b *Backend) CommittedAt(i int) *DynInst {
	return &b.win[(b.head-b.committedN+i)&winMask]
}

// issue starts execution of d, scheduler bit s, at cycle now.
func (b *Backend) issue(d *DynInst, s int, now uint64) {
	cls := d.Static.Class
	switch {
	case cls == isa.OpLoad:
		b.loadsExec++
		if b.mem != nil && !d.WrongPath {
			b.memReq[s] = b.mem.AccessData(d.EffAddr, now, false)
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

// finish marks d (scheduler bit s) complete: it leaves the active set and
// releases the consumers parked on it.
func (b *Backend) finish(d *DynInst, s int) {
	d.state = stateCompleted
	b.active &^= 1 << s
	b.blocked &^= b.waiters[s]
	b.waiters[s] = 0
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

// SquashWrongPath drops the fetched segment and removes every wrong-path
// instruction from the RUU. The core calls it when the mispredicted branch
// resolves: everything fetched after that branch is wrong-path, and
// wrong-path instructions are always the youngest in the RUU — everything
// dispatched after the branch — so the squash truncates that suffix. It
// returns the number of squashed RUU entries.
func (b *Backend) SquashWrongPath() int {
	b.fetchN = 0
	n := 0
	for b.ruuN > 0 {
		pos := (b.head + b.ruuN - 1) & winMask
		if !b.win[pos].WrongPath {
			break
		}
		// Wrong-path instructions carry no dependences and hold no memory
		// request, so none is parked and none has parked consumers.
		b.active &^= 1 << (pos & ruuMask)
		b.ruuN--
		n++
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
	return b.win[b.head].Seq, true
}
