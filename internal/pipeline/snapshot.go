package pipeline

import (
	"clgp/internal/isa"
	"clgp/internal/memory"
	"clgp/internal/snap"
)

// Section tags for the back-end snapshot records.
const (
	backendTag uint32 = 0x4B424550 // "PEBK"
	instTag    uint32 = 0x4E494550 // "PEIN"
)

// Program resolves a static instruction by PC when a snapshot is restored;
// *isa.Dictionary implements it.
type Program interface {
	Inst(pc isa.Addr) *isa.StaticInst
}

// Static-reference markers of an instruction record: an image instruction
// (followed by its PC) or the synthetic off-image nop. Marker 0 (no static
// instruction) is reserved and never written.
const (
	staticImage    uint8 = 1
	staticOffImage uint8 = 2
)

// saveInst serialises one DynInst in full: identity, flags, execution state,
// its data-cache request (nil unless it is a load waiting on memory) and the
// dependence references (window positions collapse to sequence numbers —
// restore re-binds them to the live producer still in the RUU, or leaves
// them unlinked, which depRef.done treats identically to a departed
// producer).
func saveInst(e *snap.Encoder, d *DynInst, req *memory.Request, s *memory.ReqSet) {
	e.Tag(instTag)
	if d.OffImage {
		e.U8(staticOffImage)
	} else {
		e.U8(staticImage)
		e.U64(uint64(d.Static.PC))
	}
	e.U64(d.Seq)
	e.Bool(d.WrongPath)
	e.Bool(d.MispredictedBranch)
	e.U64(uint64(d.EffAddr))
	e.U64(d.FetchedAt)
	e.U8(uint8(d.state))
	e.U64(d.issueAt)
	e.U64(d.completAt)
	s.SaveID(e, req)
	for i := range d.deps {
		e.Bool(d.deps[i].linked)
		e.U64(d.deps[i].seq)
	}
}

// loadInst restores one DynInst saved by saveInst into d (freshly zeroed)
// and returns its data-cache request. Dependence references come back
// unlinked with linked[i] reporting whether reference i had a producer; the
// caller re-binds them once every instruction is in place.
func loadInst(dec *snap.Decoder, d *DynInst, s *memory.ReqSet, prog Program) (req *memory.Request, linked [2]bool) {
	dec.Tag(instTag)
	switch marker := dec.U8(); marker {
	case staticOffImage:
		d.SetStatic(nil)
	case staticImage:
		pc := isa.Addr(dec.U64())
		si := prog.Inst(pc)
		if si == nil && dec.Err() == nil {
			dec.Failf("pipeline: static instruction at %#x not in the program", pc)
		}
		if si != nil {
			d.SetStatic(si)
		}
	default:
		if dec.Err() == nil {
			dec.Failf("pipeline: invalid static instruction marker %d", marker)
		}
	}
	d.Seq = dec.U64()
	d.WrongPath = dec.Bool()
	d.MispredictedBranch = dec.Bool()
	d.EffAddr = isa.Addr(dec.U64())
	d.FetchedAt = dec.U64()
	st := dec.U8()
	if dec.Err() == nil && st > uint8(stateCompleted) {
		dec.Failf("pipeline: invalid instruction state %d", st)
	}
	d.state = instState(st)
	d.issueAt = dec.U64()
	d.completAt = dec.U64()
	req = s.LoadID(dec)
	for i := range d.deps {
		linked[i] = dec.Bool()
		d.deps[i] = depRef{seq: dec.U64()}
	}
	return req, linked
}

// AddLiveRequests registers the in-flight data-cache requests held by RUU
// entries with the request identity table.
func (b *Backend) AddLiveRequests(s *memory.ReqSet) {
	for i := 0; i < b.ruuN; i++ {
		s.Add(b.memReq[(b.head+i)&ruuMask])
	}
}

// SaveFetched serialises the fetched-but-not-dispatched segment of the
// window (the front-end's dispatch queue) in fetch order. The core writes it
// with its own state, ahead of the back-end section.
func (b *Backend) SaveFetched(e *snap.Encoder, s *memory.ReqSet) {
	e.Int(b.fetchN)
	for i := 0; i < b.fetchN; i++ {
		saveInst(e, &b.win[(b.head+b.ruuN+i)&winMask], nil, s)
	}
}

// LoadFetched restores a segment saved by SaveFetched into a freshly built
// back-end; LoadState then rebuilds the RUU in front of it.
func (b *Backend) LoadFetched(d *snap.Decoder, s *memory.ReqSet, prog Program) {
	n := d.Count(FetchQueueCap)
	for i := 0; i < n && d.Err() == nil; i++ {
		// Pre-dispatch instructions hold no request and no dependence links
		// yet (Dispatch establishes them).
		if req, _ := loadInst(d, b.FetchSlot(), s, prog); req != nil {
			d.Failf("pipeline: fetched instruction %d holds a memory request", i)
		}
	}
}

// SaveState serialises the back-end: the RUU in program order, the cached
// event horizon, the register scoreboard (as producer sequence numbers) and
// the counters.
func (b *Backend) SaveState(e *snap.Encoder, s *memory.ReqSet) {
	e.Tag(backendTag)
	e.Int(b.ruuN)
	for i := 0; i < b.ruuN; i++ {
		pos := (b.head + i) & winMask
		saveInst(e, &b.win[pos], b.memReq[pos&ruuMask], s)
	}
	e.U64(b.nextEv)
	e.Bool(b.readyNow)
	for r := range b.regProducer {
		e.Bool(b.regProducer[r].linked)
		e.U64(b.regProducer[r].seq)
	}
	e.U64(b.committed)
	e.U64(b.wrongSquash)
	e.U64(b.loadsExec)
	e.U64(b.storesExec)
	e.U64(b.resolvedMisp)
}

// LoadState restores state saved by SaveState into a back-end built from the
// same configuration (after LoadFetched, when the snapshot has a fetched
// segment). The RUU is rebuilt in the positions just before the fetched
// segment, and the scheduler masks are rebuilt from the restored entries.
// Dependence and scoreboard references are re-bound to the restored producer
// instructions by sequence number — a sequence no longer in the RUU restores
// as an unlinked reference, which depRef.done already treats as a departed
// (completed or squashed) producer.
func (b *Backend) LoadState(d *snap.Decoder, s *memory.ReqSet, prog Program) {
	d.Tag(backendTag)
	n := d.Count(b.cfg.RUUSize)
	if d.Err() != nil {
		return
	}
	b.head = (b.head + b.ruuN - n) & winMask
	b.ruuN = n
	// The scheduler masks are derived state, rebuilt rather than saved:
	// every uncompleted entry is active, and none starts parked — the first
	// walk re-parks each consumer still waiting on a producer, as it would
	// have found it waiting.
	b.active, b.blocked = 0, 0
	b.waiters = [ruuSlots]uint64{}
	b.memReq = [ruuSlots]*memory.Request{}
	var linked [ruuSlots][2]bool
	bySeq := make(map[uint64]int, n)
	for i := 0; i < n; i++ {
		pos := (b.head + i) & winMask
		di := &b.win[pos]
		*di = DynInst{}
		b.memReq[pos&ruuMask], linked[i] = loadInst(d, di, s, prog)
		if di.state != stateCompleted {
			b.active |= 1 << (pos & ruuMask)
		}
		bySeq[di.Seq] = pos
	}
	if d.Err() != nil {
		return
	}
	// link re-binds a saved reference to its producer's restored position.
	link := func(r *depRef, had bool) {
		if pos, ok := bySeq[r.seq]; had && ok {
			r.pos, r.linked = uint8(pos), true
		}
	}
	for i := 0; i < n; i++ {
		di := &b.win[(b.head+i)&winMask]
		for k := range di.deps {
			link(&di.deps[k], linked[i][k])
		}
	}
	b.nextEv = d.U64()
	b.readyNow = d.Bool()
	for r := range b.regProducer {
		had := d.Bool()
		b.regProducer[r] = depRef{seq: d.U64()}
		link(&b.regProducer[r], had)
	}
	b.committed = d.U64()
	b.wrongSquash = d.U64()
	b.loadsExec = d.U64()
	b.storesExec = d.U64()
	b.resolvedMisp = d.U64()
}
