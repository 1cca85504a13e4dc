package pipeline

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"clgp/internal/cacti"
	"clgp/internal/clock"
	"clgp/internal/isa"
	"clgp/internal/memory"
	"clgp/internal/snap"
)

// refBackend is the reference scheduler for the differential test: it walks
// every RUU entry on every tick. Its window layout and its dispatch, issue
// and commit rules are the Backend's; only the choice of which entries to
// visit differs. Its squash compacts any wrong-path entries out of the RUU,
// and reports whether they formed the suffix the Backend's squash relies on.
type refBackend struct {
	cfg Config
	mem *memory.Hierarchy

	win        [winSlots]DynInst
	memReq     [winSlots]*memory.Request
	head       int
	ruuN       int
	fetchN     int
	committedN int

	nextEv   uint64
	readyNow bool

	regProducer [isa.NumRegs]depRef

	committed    uint64
	wrongSquash  uint64
	loadsExec    uint64
	storesExec   uint64
	resolvedMisp uint64

	// squashNotSuffix is set when a squash found a correct-path entry
	// younger than a wrong-path one.
	squashNotSuffix bool
}

func newRefBackend(cfg Config, mem *memory.Hierarchy) *refBackend {
	cfg, err := cfg.normalise()
	if err != nil {
		panic(err)
	}
	return &refBackend{cfg: cfg, mem: mem, nextEv: clock.None}
}

func (b *refBackend) ruuAt(i int) *DynInst { return &b.win[(b.head+i)&winMask] }

func (b *refBackend) FreeSlots() int { return b.cfg.RUUSize - b.ruuN }

func (b *refBackend) Fetched() int { return b.fetchN }

func (b *refBackend) FetchSlot() *DynInst {
	if b.fetchN >= FetchQueueCap {
		panic("reference: fetch queue overflow")
	}
	d := &b.win[(b.head+b.ruuN+b.fetchN)&winMask]
	*d = DynInst{}
	b.fetchN++
	return d
}

func (b *refBackend) Dispatch(now uint64) bool {
	if b.fetchN == 0 || b.ruuN >= b.cfg.RUUSize {
		return false
	}
	pos := (b.head + b.ruuN) & winMask
	d := &b.win[pos]
	d.state = stateDispatched
	d.issueAt = now + b.cfg.issueDelay()
	if !d.WrongPath {
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
	b.ruuN++
	b.fetchN--
	b.nextEv = clock.Min(b.nextEv, d.issueAt)
	return true
}

func (b *refBackend) TickInto(now uint64) (committed int, resolved bool) {
	b.committedN = 0
	if b.ruuN > 0 && !b.readyNow && b.nextEv > now {
		return 0, false
	}
	nextEv := clock.None
	readyNow := false
	issued := 0
	for i := 0; i < b.ruuN; i++ {
		pos := (b.head + i) & winMask
		d := &b.win[pos]
		switch d.state {
		case stateDispatched:
			if now < d.issueAt {
				nextEv = clock.Min(nextEv, d.issueAt)
				continue
			}
			if !d.deps[0].done(&b.win, now) || !d.deps[1].done(&b.win, now) {
				continue
			}
			if issued >= b.cfg.Width {
				readyNow = true
				continue
			}
			issued++
			b.issue(d, pos, now)
			if d.state == stateWaitingMem {
				if b.memReq[pos] != nil {
					nextEv = clock.Min(nextEv, b.memReq[pos].NextEvent(now))
				} else {
					readyNow = true
				}
			} else {
				nextEv = clock.Min(nextEv, d.completAt)
			}
		case stateWaitingMem:
			if b.memReq[pos] == nil {
				readyNow = true
			} else if b.memReq[pos].Ready(now) {
				if b.mem != nil {
					b.mem.Release(b.memReq[pos])
				}
				b.memReq[pos] = nil
				d.completAt = now
				d.state = stateCompleted
			} else {
				nextEv = clock.Min(nextEv, b.memReq[pos].NextEvent(now))
			}
		case stateIssued:
			if now >= d.completAt {
				d.state = stateCompleted
			} else {
				nextEv = clock.Min(nextEv, d.completAt)
			}
		}
		if d.state == stateCompleted && d.MispredictedBranch && !resolved && d.completAt == now {
			resolved = true
			b.resolvedMisp++
		}
	}
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
	if b.ruuN > 0 {
		if head := &b.win[b.head]; !head.WrongPath && head.state == stateCompleted {
			readyNow = true
		}
	}
	b.nextEv, b.readyNow = nextEv, readyNow
	return committed, resolved
}

func (b *refBackend) CommittedAt(i int) *DynInst {
	return &b.win[(b.head-b.committedN+i)&winMask]
}

func (b *refBackend) issue(d *DynInst, pos int, now uint64) {
	cls := d.Static.Class
	switch {
	case cls == isa.OpLoad:
		b.loadsExec++
		if b.mem != nil && !d.WrongPath {
			b.memReq[pos] = b.mem.AccessData(d.EffAddr, now, false)
			d.state = stateWaitingMem
			return
		}
		d.completAt = now + 1
		d.state = stateIssued
	case cls == isa.OpStore:
		b.storesExec++
		if b.mem != nil && !d.WrongPath {
			b.mem.Release(b.mem.AccessData(d.EffAddr, now, true))
		}
		d.completAt = now + 1
		d.state = stateIssued
	default:
		d.completAt = now + uint64(cls.ExecLatency())
		d.state = stateIssued
	}
}

func (b *refBackend) NextEvent(now uint64) uint64 {
	if b.ruuN == 0 {
		return clock.None
	}
	if b.readyNow || b.nextEv <= now {
		return now
	}
	return b.nextEv
}

func (b *refBackend) SquashWrongPath() int {
	b.fetchN = 0
	n := 0
	w := 0
	for r := 0; r < b.ruuN; r++ {
		d := b.ruuAt(r)
		if d.WrongPath {
			n++
			continue
		}
		if n > 0 {
			b.squashNotSuffix = true
		}
		from, to := (b.head+r)&winMask, (b.head+w)&winMask
		b.win[to], b.memReq[to] = *d, b.memReq[from]
		w++
	}
	b.ruuN = w
	b.wrongSquash += uint64(n)
	b.readyNow = true
	return n
}

// scheduler is the surface the differential driver exercises; Backend and
// refBackend both implement it.
type scheduler interface {
	FetchSlot() *DynInst
	Dispatch(now uint64) bool
	TickInto(now uint64) (committed int, resolved bool)
	CommittedAt(i int) *DynInst
	SquashWrongPath() int
	NextEvent(now uint64) uint64
	FreeSlots() int
	Fetched() int
}

// streamOp is one instruction of a generated stream. A mispredicted branch
// carries the wrong-path instructions the front-end delivers after it until
// it resolves.
type streamOp struct {
	si    *isa.StaticInst
	addr  isa.Addr
	misp  bool
	wrong []streamOp
}

// genStream builds a seeded stream of n correct-path instructions mixing
// ALU, multiply, FP, load, store and branch classes over a small register
// file, so most instructions depend on a recent producer. Loads and stores
// touch a hot region plus occasional far lines, giving hits and misses. The
// static instructions are returned too, indexed by PC/4, for the snapshot
// codec.
func genStream(seed int64, n int) ([]streamOp, []*isa.StaticInst) {
	rng := rand.New(rand.NewSource(seed))
	var prog []*isa.StaticInst
	reg := func() uint8 {
		if rng.Intn(5) == 0 {
			return isa.RegZero
		}
		return uint8(rng.Intn(8))
	}
	gen := func() streamOp {
		si := &isa.StaticInst{PC: isa.Addr(len(prog) * 4), Src1: reg(), Src2: reg(), Dst: reg()}
		prog = append(prog, si)
		op := streamOp{si: si}
		switch r := rng.Intn(100); {
		case r < 35:
			si.Class = isa.OpALU
		case r < 45:
			si.Class = isa.OpMul
		case r < 50:
			si.Class = isa.OpFP
		case r < 75:
			si.Class = isa.OpLoad
		case r < 85:
			si.Class = isa.OpStore
			si.Dst = isa.RegZero
		default:
			si.Class = isa.OpBranch
			si.Dst = isa.RegZero
		}
		if si.Class == isa.OpLoad || si.Class == isa.OpStore {
			if rng.Intn(8) == 0 {
				op.addr = isa.Addr(0x4000_0000 + rng.Intn(1<<24)&^7)
			} else {
				op.addr = isa.Addr(0x1000_0000 + rng.Intn(8<<10)&^7)
			}
		}
		return op
	}
	ops := make([]streamOp, n)
	for i := range ops {
		ops[i] = gen()
		if ops[i].si.Class == isa.OpBranch && rng.Intn(3) == 0 {
			ops[i].misp = true
			ops[i].wrong = make([]streamOp, rng.Intn(25))
			for j := range ops[i].wrong {
				ops[i].wrong[j] = gen()
			}
		}
	}
	return ops, prog
}

// streamDriver feeds one scheduler a stream the way the core does: tick,
// squash on resolution, fetch up to Width instructions into the fetched
// segment while it holds fewer than fetchAhead (the wrong-path instructions
// of a fetched, unresolved mispredicted branch, else the next correct-path
// ones), then dispatch up to Width of them.
type streamDriver struct {
	b     scheduler
	mem   *memory.Hierarchy
	width int

	ops     []streamOp
	cur     int
	wrong   []streamOp
	waiting bool
	mispSeq uint64
	seq     uint64
}

// fetchAhead bounds the driver's fetched-but-not-dispatched backlog, so the
// window holds both segments and a squash drops fetched wrong-path entries.
const fetchAhead = 12

// cycleResult is what one driven cycle exposes for comparison.
type cycleResult struct {
	commits  []uint64
	resolved uint64 // seq+1 of the resolved branch, 0 for none
	squashed int
	next     uint64
}

func (dr *streamDriver) cycle(now uint64) cycleResult {
	var res cycleResult
	dr.mem.Tick(now)
	committed, resolved := dr.b.TickInto(now)
	for i := 0; i < committed; i++ {
		res.commits = append(res.commits, dr.b.CommittedAt(i).Seq)
	}
	if resolved {
		// The driver fetches nothing correct-path behind a mispredicted
		// branch until it resolves, so the resolved branch is the one
		// fetched last.
		res.resolved = dr.mispSeq + 1
		res.squashed = dr.b.SquashWrongPath()
		dr.waiting, dr.wrong = false, nil
	}
	for n := 0; n < dr.width && dr.b.Fetched() < fetchAhead; n++ {
		var op streamOp
		wrongPath := dr.waiting
		if wrongPath {
			if len(dr.wrong) == 0 {
				break
			}
			op, dr.wrong = dr.wrong[0], dr.wrong[1:]
		} else {
			if dr.cur == len(dr.ops) {
				break
			}
			op = dr.ops[dr.cur]
			dr.cur++
		}
		d := dr.b.FetchSlot()
		d.SetStatic(op.si)
		d.Seq, d.EffAddr, d.FetchedAt = dr.seq, op.addr, now
		d.WrongPath, d.MispredictedBranch = wrongPath, op.misp && !wrongPath
		dr.seq++
		if d.MispredictedBranch {
			dr.waiting, dr.wrong, dr.mispSeq = true, op.wrong, d.Seq
		}
	}
	for n := 0; n < dr.width && dr.b.Dispatch(now); n++ {
	}
	res.next = dr.b.NextEvent(now)
	return res
}

// progImage resolves static instructions by PC in a generated program.
type progImage []*isa.StaticInst

func (p progImage) Inst(pc isa.Addr) *isa.StaticInst {
	if uint64(pc/4) >= uint64(len(p)) {
		return nil
	}
	return p[pc/4]
}

// restoreThroughSnapshot saves the back-end (its fetched segment, then the
// rest, as the core does) and its memory hierarchy, and loads them into
// fresh ones, which the driver continues with.
func restoreThroughSnapshot(t *testing.T, dr *streamDriver, cfg Config, memCfg memory.Config, prog progImage) {
	t.Helper()
	b := dr.b.(*Backend)
	rs := memory.NewReqSet()
	dr.mem.AddLiveRequests(rs)
	b.AddLiveRequests(rs)
	var enc snap.Encoder
	rs.Save(&enc)
	b.SaveFetched(&enc, rs)
	dr.mem.SaveState(&enc, rs)
	b.SaveState(&enc, rs)

	mem := memory.MustNew(memCfg)
	nb := MustNew(cfg, mem)
	dec := snap.NewDecoder(enc.Bytes())
	rs2 := memory.NewReqSet()
	rs2.Load(dec)
	nb.LoadFetched(dec, rs2, prog)
	mem.LoadState(dec, rs2)
	nb.LoadState(dec, rs2, prog)
	if err := dec.Err(); err != nil {
		t.Fatalf("restore: %v", err)
	}
	if dec.Remaining() != 0 {
		t.Fatalf("restore left %d bytes unread", dec.Remaining())
	}
	dr.b, dr.mem = nb, mem
}

// TestSchedulerMatchesFullWalk drives the masked scheduler and the full-walk
// reference with identical seeded streams (ALU, multiply, FP, load, store
// and branch instructions with random register dependences, wrong-path
// suffixes squashed at resolution) and requires the same committed seqs,
// resolved branch and NextEvent on every cycle. Each stream passes the
// Backend through SaveFetched/SaveState and LoadFetched/LoadState once while
// consumers are parked and fetched instructions wait for dispatch. RUU sizes
// 8 and 64 both wrap the 128-position window many times.
func TestSchedulerMatchesFullWalk(t *testing.T) {
	for _, ruu := range []int{8, 64} {
		for seed := int64(1); seed <= 6; seed++ {
			t.Run(fmt.Sprintf("ruu%d/seed%d", ruu, seed), func(t *testing.T) {
				cfg := Config{Width: 4, RUUSize: ruu}
				memCfg := memory.DefaultConfig(cacti.Tech45, 4<<10)
				ops, prog := genStream(seed, 3000)
				newDriver := func(ref bool) *streamDriver {
					mem := memory.MustNew(memCfg)
					dr := &streamDriver{mem: mem, width: cfg.Width, ops: ops}
					if ref {
						dr.b = newRefBackend(cfg, mem)
					} else {
						dr.b = MustNew(cfg, mem)
					}
					return dr
				}
				got, want := newDriver(false), newDriver(true)
				ref := want.b.(*refBackend)

				snapshotted := false
				snapFrom := uint64(400 + 100*seed)
				var now uint64
				for ; now < 2_000_000; now++ {
					g, w := got.cycle(now), want.cycle(now)
					if !slices.Equal(g.commits, w.commits) || g.resolved != w.resolved || g.squashed != w.squashed || g.next != w.next {
						t.Fatalf("cycle %d: got commits %v resolved %d squashed %d next %d; full walk %v %d %d %d",
							now, g.commits, g.resolved, g.squashed, g.next, w.commits, w.resolved, w.squashed, w.next)
					}
					if ref.squashNotSuffix {
						t.Fatalf("cycle %d: a squash found correct-path entries younger than wrong-path ones", now)
					}
					if b := got.b.(*Backend); !snapshotted && now >= snapFrom && b.blocked != 0 && b.fetchN > 0 {
						restoreThroughSnapshot(t, got, cfg, memCfg, progImage(prog))
						snapshotted = true
					}
					if got.cur == len(ops) && !got.waiting && ref.ruuN == 0 && got.b.(*Backend).Drained() {
						break
					}
				}
				if !snapshotted {
					t.Fatalf("no cycle after %d had parked consumers and fetched instructions to snapshot", snapFrom)
				}
				b := got.b.(*Backend)
				if !b.Drained() || ref.ruuN != 0 {
					t.Fatalf("stream did not drain by cycle %d", now)
				}
				if b.committed != ref.committed || b.wrongSquash != ref.wrongSquash || b.resolvedMisp != ref.resolvedMisp ||
					b.loadsExec != ref.loadsExec || b.storesExec != ref.storesExec {
					t.Errorf("counters differ: got %d/%d/%d/%d/%d, full walk %d/%d/%d/%d/%d",
						b.committed, b.wrongSquash, b.resolvedMisp, b.loadsExec, b.storesExec,
						ref.committed, ref.wrongSquash, ref.resolvedMisp, ref.loadsExec, ref.storesExec)
				}
				if ref.resolvedMisp == 0 || ref.wrongSquash == 0 {
					t.Errorf("stream exercised no squash (resolved %d, squashed %d)", ref.resolvedMisp, ref.wrongSquash)
				}
			})
		}
	}
}
