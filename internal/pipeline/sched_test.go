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
// every RUU entry on every tick. Its dispatch, issue and commit rules are the
// Backend's; only the choice of which entries to visit differs. Its squash
// compacts any wrong-path entries out of the ring, and reports whether they
// formed the suffix the Backend's squash relies on.
type refBackend struct {
	cfg Config
	mem *memory.Hierarchy

	ruu     []*DynInst
	ruuMask int
	ruuHead int
	ruuN    int

	nextEv   uint64
	readyNow bool

	pool        *Pool
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

func newRefBackend(cfg Config, mem *memory.Hierarchy, pool *Pool) *refBackend {
	cfg, err := cfg.normalise()
	if err != nil {
		panic(err)
	}
	ringLen := 1
	for ringLen < cfg.RUUSize {
		ringLen <<= 1
	}
	return &refBackend{cfg: cfg, mem: mem, ruu: make([]*DynInst, ringLen), ruuMask: ringLen - 1, nextEv: clock.None, pool: pool}
}

func (b *refBackend) ruuAt(i int) *DynInst { return b.ruu[(b.ruuHead+i)&b.ruuMask] }

func (b *refBackend) FreeSlots() int { return b.cfg.RUUSize - b.ruuN }

func (b *refBackend) Dispatch(d *DynInst, now uint64) bool {
	if b.ruuN >= b.cfg.RUUSize {
		return false
	}
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
			b.regProducer[d.Static.Dst] = depRef{d: d, seq: d.Seq}
		}
	}
	b.ruu[(b.ruuHead+b.ruuN)&b.ruuMask] = d
	b.ruuN++
	b.nextEv = clock.Min(b.nextEv, d.issueAt)
	return true
}

func (b *refBackend) TickInto(now uint64, buf []*DynInst) (committed []*DynInst, resolved *DynInst) {
	committed = buf
	if b.ruuN > 0 && !b.readyNow && b.nextEv > now {
		return committed, nil
	}
	nextEv := clock.None
	readyNow := false
	issued := 0
	for i := 0; i < b.ruuN; i++ {
		d := b.ruuAt(i)
		switch d.state {
		case stateDispatched:
			if now < d.issueAt {
				nextEv = clock.Min(nextEv, d.issueAt)
				continue
			}
			if !depsReady(d, now) {
				continue
			}
			if issued >= b.cfg.Width {
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
				d.state = stateCompleted
			} else {
				nextEv = clock.Min(nextEv, d.memReq.NextEvent(now))
			}
		case stateIssued:
			if now >= d.completAt {
				d.state = stateCompleted
			} else {
				nextEv = clock.Min(nextEv, d.completAt)
			}
		}
		if d.state == stateCompleted && d.MispredictedBranch && resolved == nil && d.completAt == now {
			resolved = d
			b.resolvedMisp++
		}
	}
	for b.ruuN > 0 && len(committed)-len(buf) < b.cfg.Width {
		head := b.ruu[b.ruuHead]
		if head.WrongPath || head.state != stateCompleted || head.completAt > now {
			break
		}
		b.ruu[b.ruuHead] = nil
		b.ruuHead = (b.ruuHead + 1) & b.ruuMask
		b.ruuN--
		b.committed++
		committed = append(committed, head)
	}
	if b.ruuN > 0 {
		if head := b.ruu[b.ruuHead]; !head.WrongPath && head.state == stateCompleted {
			readyNow = true
		}
	}
	b.nextEv, b.readyNow = nextEv, readyNow
	return committed, resolved
}

func (b *refBackend) issue(d *DynInst, now uint64) {
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
	n := 0
	w := 0
	for r := 0; r < b.ruuN; r++ {
		d := b.ruuAt(r)
		if d.WrongPath {
			n++
			if b.pool != nil {
				b.pool.Put(d)
			}
			continue
		}
		if n > 0 {
			b.squashNotSuffix = true
		}
		b.ruu[(b.ruuHead+w)&b.ruuMask] = d
		w++
	}
	for i := w; i < b.ruuN; i++ {
		b.ruu[(b.ruuHead+i)&b.ruuMask] = nil
	}
	b.ruuN = w
	b.wrongSquash += uint64(n)
	b.readyNow = true
	return n
}

// scheduler is the surface the differential driver exercises; Backend and
// refBackend both implement it.
type scheduler interface {
	Dispatch(d *DynInst, now uint64) bool
	TickInto(now uint64, buf []*DynInst) ([]*DynInst, *DynInst)
	SquashWrongPath() int
	NextEvent(now uint64) uint64
	FreeSlots() int
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
// squash on resolution, then dispatch up to Width instructions (the
// wrong-path instructions of an unresolved mispredicted branch, else the
// next correct-path ones).
type streamDriver struct {
	b     scheduler
	mem   *memory.Hierarchy
	pool  *Pool
	width int
	buf   []*DynInst

	ops     []streamOp
	cur     int
	wrong   []streamOp
	waiting bool
	seq     uint64
}

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
	committed, resolved := dr.b.TickInto(now, dr.buf[:0])
	dr.buf = committed
	for _, d := range committed {
		res.commits = append(res.commits, d.Seq)
		dr.pool.Put(d)
	}
	if resolved != nil {
		res.resolved = resolved.Seq + 1
		res.squashed = dr.b.SquashWrongPath()
		dr.waiting, dr.wrong = false, nil
	}
	for n := 0; n < dr.width && dr.b.FreeSlots() > 0; n++ {
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
		d := dr.pool.Get()
		d.Static, d.Seq, d.EffAddr, d.FetchedAt = op.si, dr.seq, op.addr, now
		d.WrongPath, d.MispredictedBranch = wrongPath, op.misp && !wrongPath
		dr.seq++
		dr.b.Dispatch(d, now)
		if d.MispredictedBranch {
			dr.waiting, dr.wrong = true, op.wrong
		}
	}
	res.next = dr.b.NextEvent(now)
	return res
}

// progCodec resolves static instructions by PC in a generated program.
type progCodec []*isa.StaticInst

func (p progCodec) SaveStatic(e *snap.Encoder, s *isa.StaticInst) { e.U64(uint64(s.PC)) }

func (p progCodec) LoadStatic(d *snap.Decoder) *isa.StaticInst {
	pc := d.U64()
	if pc/4 >= uint64(len(p)) {
		d.Failf("pipeline test: PC %#x outside the program", pc)
		return nil
	}
	return p[pc/4]
}

// restoreThroughSnapshot saves the back-end and its memory hierarchy and
// loads them into fresh ones, which the driver continues with.
func restoreThroughSnapshot(t *testing.T, dr *streamDriver, cfg Config, memCfg memory.Config, codec progCodec) {
	t.Helper()
	b := dr.b.(*Backend)
	rs := memory.NewReqSet()
	dr.mem.AddLiveRequests(rs)
	b.AddLiveRequests(rs)
	var enc snap.Encoder
	rs.Save(&enc)
	dr.mem.SaveState(&enc, rs)
	b.SaveState(&enc, rs, codec)

	mem := memory.MustNew(memCfg)
	pool := NewPool()
	nb := MustNew(cfg, mem)
	nb.SetPool(pool)
	dec := snap.NewDecoder(enc.Bytes())
	rs2 := memory.NewReqSet()
	rs2.Load(dec)
	mem.LoadState(dec, rs2)
	nb.LoadState(dec, rs2, codec)
	if err := dec.Err(); err != nil {
		t.Fatalf("restore: %v", err)
	}
	if dec.Remaining() != 0 {
		t.Fatalf("restore left %d bytes unread", dec.Remaining())
	}
	dr.b, dr.mem, dr.pool = nb, mem, pool
}

// TestSchedulerMatchesFullWalk drives the masked scheduler and the full-walk
// reference with identical seeded streams (ALU, multiply, FP, load, store
// and branch instructions with random register dependences, wrong-path
// suffixes squashed at resolution) and requires the same committed seqs,
// resolved branch and NextEvent on every cycle. Each stream passes the
// Backend through SaveState/LoadState once while consumers are parked. RUU
// sizes 8 and 64 both wrap the 64-slot ring many times.
func TestSchedulerMatchesFullWalk(t *testing.T) {
	for _, ruu := range []int{8, 64} {
		for seed := int64(1); seed <= 6; seed++ {
			t.Run(fmt.Sprintf("ruu%d/seed%d", ruu, seed), func(t *testing.T) {
				cfg := Config{Width: 4, RUUSize: ruu}
				memCfg := memory.DefaultConfig(cacti.Tech45, 4<<10)
				ops, prog := genStream(seed, 3000)
				newDriver := func(ref bool) *streamDriver {
					mem := memory.MustNew(memCfg)
					pool := NewPool()
					dr := &streamDriver{mem: mem, pool: pool, width: cfg.Width, ops: ops, buf: make([]*DynInst, 0, cfg.Width)}
					if ref {
						dr.b = newRefBackend(cfg, mem, pool)
					} else {
						b := MustNew(cfg, mem)
						b.SetPool(pool)
						dr.b = b
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
					if !snapshotted && now >= snapFrom && got.b.(*Backend).blocked != 0 {
						restoreThroughSnapshot(t, got, cfg, memCfg, progCodec(prog))
						snapshotted = true
					}
					if got.cur == len(ops) && !got.waiting && ref.ruuN == 0 && got.b.(*Backend).Drained() {
						break
					}
				}
				if !snapshotted {
					t.Fatalf("no cycle after %d had parked consumers to snapshot", snapFrom)
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
