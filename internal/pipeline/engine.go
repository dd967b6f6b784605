package pipeline

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"tamperdetect/internal/capture"
	"tamperdetect/internal/core"
	"tamperdetect/internal/trace"
)

// maxSlabBytes flushes a raw batch early when its slab grows past this
// size, so a run of huge records cannot pin unbounded memory behind
// one batch.
const maxSlabBytes = 1 << 20

// producer is one input stream of a run: a scanner yielding raw record
// bytes, or a Source yielding decoded records. Its records get the
// contiguous indexes first, first+1, ….
type producer struct {
	scan  *capture.Scanner
	src   Source
	first int
	shard int32        // segment number; -1 for an unsharded stream
	check func() error // seam check after a clean EOF; nil for none
}

// batch is the unit that moves through the engine: the records
// first, first+1, … of one producer. A scanner producer fills the raw
// form — one byte slab plus boundaries, record i being
// slab[offs[i]:offs[i+1]] — which the worker decodes into conns; a
// Source producer fills items directly. Only the current owner writes
// a batch: the producer until its send, then one worker, then the
// reassembler, which recycles it after the sink has run.
type batch struct {
	first int
	shard int32
	slab  []byte
	offs  []int32 // empty for a decoded batch
	items []Item
	conns *[]capture.Connection // Conn storage of a decoded raw batch
	// Trace context, set only when a Tracer is attached: the producer
	// span (parent of every later stage span of the batch) and its end,
	// the enqueue time where the queue-wait span starts.
	span  uint64
	enqNS int64
}

func (b *batch) len() int {
	if len(b.offs) > 0 {
		return len(b.offs) - 1
	}
	return len(b.items)
}

// engine is the state one run shares across its goroutines.
type engine struct {
	ctx       context.Context
	cl        *core.Classifier
	observe   func(int, Item)
	m         *Metrics
	tel       *Telemetry
	rt        *runTrace
	root      uint64 // parent of producer spans
	batchSize int
	// Free lists sized to the most batches a run holds at once, so
	// recycling never depends on the garbage collector's timing (a
	// sync.Pool empties every other GC cycle). Connection storage is
	// kept apart from batches: only the batches between decode and
	// delivery hold it, so fewer Connections need warming up.
	free      chan *batch
	freeConns chan *[]capture.Connection
	raw, res  []chan *batch // per producer; res has one entry when unordered

	// The stage clock: one read per stage boundary feeds both the
	// latency histogram and the span. Monotonic, offset to wall time so
	// spans line up with other processes' traces.
	timed bool
	t0    time.Time
	base  int64
}

func (e *engine) now() int64 {
	if !e.timed {
		return 0
	}
	return e.base + int64(time.Since(e.t0))
}

// run is the engine behind Run, Stream and ShardedScan: K producers,
// a worker group per producer, one reassembler and one deliver loop.
func run(ctx context.Context, cfg Config, sink Sink, producers []producer) (Counts, error) {
	depth := cfg.Depth
	if depth <= 0 {
		depth = DefaultDepth
	}
	bs := cfg.BatchSize
	if bs <= 0 {
		bs = DefaultBatchSize
	}
	bs = min(bs, depth)
	cl := cfg.Classifier
	if cl == nil {
		cl = core.NewClassifier(core.DefaultConfig())
	}
	tel := cfg.Telemetry
	m := cfg.Metrics
	if m == nil {
		if tel != nil {
			m = tel.Metrics()
		} else {
			m = &Metrics{}
		}
	}
	if tel != nil {
		tel.attach(m)
	}
	if sink == nil {
		sink = func(Item) error { return nil }
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	k := len(producers)
	e := &engine{ctx: ctx, cl: cl, observe: cfg.Observe, m: m, tel: tel,
		rt: newRunTrace(cfg.Tracer), batchSize: bs, t0: time.Now()}
	e.timed = tel != nil || e.rt != nil
	e.base = e.t0.UnixNano()
	// Ring plan: producer i on ring i, the deliver loop on ring k,
	// worker w on ring k+1+w.
	var sinkRing *trace.Ring
	if e.rt != nil {
		e.root = e.rt.t.Root()
		for i, p := range producers {
			name := stageNames[stageDecode]
			if p.scan != nil {
				name = stageNames[stageScan]
			}
			e.rt.t.LabelRing(i, name+"/"+itoa(i))
		}
		sinkRing = e.rt.t.Ring(k)
		e.rt.t.LabelRing(k, "sink")
	}

	// Channel capacities are in batches, so Depth bounds the records in
	// flight per producer at any batch size. Unordered runs share one
	// results channel, sized for every producer.
	chanCap := max(1, depth/bs)
	nres := k
	if !cfg.Ordered {
		nres = 1
	}
	e.raw = make([]chan *batch, k)
	for i := range e.raw {
		e.raw[i] = make(chan *batch, chanCap)
	}
	e.res = make([]chan *batch, nres)
	wgs := make([]sync.WaitGroup, nres)
	for i := range e.res {
		e.res[i] = make(chan *batch, chanCap*max(1, k)/nres)
	}
	wcounts := shardWorkerCounts(cfg.Workers, k)
	// Batches one run holds at most, roughly: per producer the one it
	// fills, both channels, a reorder straggler and the sink's; plus
	// one per worker. Past it, recycled batches are dropped.
	inFlight := k * (2*chanCap + 3)
	for _, n := range wcounts {
		inFlight += n
	}
	e.free = make(chan *batch, inFlight)
	e.freeConns = make(chan *[]capture.Connection, inFlight)
	errs := make([]error, k)
	done := make([]chan struct{}, k)
	worker := 0
	for i, n := range wcounts {
		done[i] = make(chan struct{})
		go e.produce(i, &producers[i], &errs[i], done[i])
		out, wg := e.res[min(i, nres-1)], &wgs[min(i, nres-1)]
		for ; n > 0; n-- {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				e.work(w, e.raw[i], out)
			}(worker)
			worker++
		}
	}
	for i := range e.res {
		go func() {
			wgs[i].Wait()
			close(e.res[i])
		}()
	}

	// Deliver loop, on the caller's goroutine. After a sink error or
	// cancellation it keeps draining (so blocked workers can exit) but
	// stops invoking the sink.
	var sinkErr error
	stopped := false
	deliver := func(it Item) {
		if stopped || ctx.Err() != nil {
			return
		}
		switch err := sink(it); {
		case err == nil:
			m.delivered.Add(1)
		case errors.Is(err, ErrStop):
			stopped = true
			cancel()
		default:
			m.errors.Add(1)
			sinkErr = fmt.Errorf("pipeline: sink: %w", err)
			stopped = true
			cancel()
		}
	}
	deliverBatch := func(b *batch) {
		start := e.now()
		id := e.spanID()
		for i := range b.items {
			s, traced := e.recStart(b.items[i].Index)
			deliver(b.items[i])
			if traced {
				e.recEnd(sinkRing, stageSink, id, s, -1, b.shard, b.items[i].Index)
			}
		}
		e.stageEnd(sinkRing, stageSink, id, b.span, b, -1, start)
		e.put(b)
	}

	// Reassembler. Ordered runs drain producers in order, each through
	// a reorder buffer keyed by batch first index; a producer fills
	// batches with contiguous indexes, so first-index order is record
	// order. Later producers run ahead only as far as their bounded
	// channels, so memory stays bounded.
	for i, ch := range e.res {
		if !cfg.Ordered {
			for b := range ch {
				deliverBatch(b)
			}
			continue
		}
		next := producers[i].first
		pending := make(map[int]*batch)
		for b := range ch {
			pending[b.first] = b
			for nb := pending[next]; nb != nil; nb = pending[next] {
				delete(pending, next)
				next += nb.len()
				deliverBatch(nb)
			}
		}
		for _, nb := range pending {
			e.put(nb) // undelivered stragglers of a cancelled run
		}
	}

	// Wait for each producer unless the context was cancelled: a
	// cancelled run must not hang on a producer blocked in an
	// uninterruptible read. A producer's error is read only once it has
	// finished, which is what makes the unsynchronized write safe.
	var srcErr error
	for i, p := range producers {
		select {
		case <-done[i]:
		case <-ctx.Done():
			select {
			case <-done[i]:
			default:
				continue
			}
		}
		if srcErr == nil && errs[i] != nil {
			if p.shard >= 0 {
				srcErr = fmt.Errorf("pipeline: source (segment %d): %w", p.shard, errs[i])
			} else {
				srcErr = fmt.Errorf("pipeline: source: %w", errs[i])
			}
		}
	}
	if tel != nil {
		// Every channel is drained once delivery ends.
		tel.queueDecos.Set(0)
		tel.queueRes.Set(0)
	}

	counts := m.Snapshot()
	counts.Dropped = counts.Decoded - counts.Delivered
	m.dropped.Store(counts.Dropped)
	switch {
	case sinkErr != nil:
		return counts, sinkErr
	case srcErr != nil:
		return counts, srcErr
	case ctx.Err() != nil && !stopped:
		return counts, ctx.Err()
	}
	return counts, nil
}

// produce is producer i's goroutine. It stops at EOF, on a read error
// or when the run is cancelled. An error stops reading but does not
// cancel: the records read before it drain and are delivered, and the
// error surfaces once the pipeline is empty (tamperscan's exit 3).
func (e *engine) produce(i int, p *producer, errp *error, done chan<- struct{}) {
	defer close(done)
	out := e.raw[i]
	defer close(out)
	stage := stageDecode
	var bc byteCounter
	if p.scan != nil {
		stage, bc = stageScan, p.scan
	} else {
		bc, _ = p.src.(byteCounter)
	}
	var ring *trace.Ring
	if e.rt != nil {
		ring = e.rt.t.Ring(i)
	}
	var lastBytes int64
	cur := e.get(p, p.first)
	start := e.now()
	flush := func() bool {
		n := cur.len()
		if n == 0 {
			return true
		}
		if e.tel != nil && bc != nil {
			b := bc.BytesRead()
			e.tel.capBytes.Add(b - lastBytes)
			lastBytes = b
		}
		// The batch's trace context is written before the send: after
		// it a worker owns cur.
		cur.span = e.spanID()
		cur.enqNS = e.stageEnd(ring, stage, cur.span, e.root, cur, -1, start)
		next := cur.first + n
		select {
		case out <- cur:
			if e.tel != nil {
				e.tel.queueDecos.Set(e.queued(e.raw))
			}
			start = e.now()
			cur = e.get(p, next)
			return true
		case <-e.ctx.Done():
			return false
		}
	}
	for {
		var err error
		if p.scan != nil {
			var slab []byte
			if slab, err = p.scan.Next(cur.slab); err == nil {
				cur.slab = slab
				cur.offs = append(cur.offs, int32(len(slab)))
			}
		} else {
			var c *capture.Connection
			if c, err = p.src.Next(); err == nil {
				cur.items = append(cur.items, Item{Index: cur.first + len(cur.items), Conn: c})
			}
		}
		if err != nil {
			if err == io.EOF {
				err = nil
				if p.check != nil {
					err = p.check()
				}
			}
			if err != nil {
				e.m.errors.Add(1)
				*errp = err
			}
			flush()
			return
		}
		e.m.decoded.Add(1)
		if (cur.len() >= e.batchSize || len(cur.slab) >= maxSlabBytes) && !flush() {
			return
		}
	}
}

// work is worker w's goroutine: take a batch from in, process it, hand
// it on. Receiving under the context releases the worker even while
// its producer is blocked inside an uninterruptible read.
func (e *engine) work(w int, in <-chan *batch, out chan<- *batch) {
	cl := *e.cl // private instance: no false sharing across workers
	var scratch core.Scratch
	var ring *trace.Ring
	if e.rt != nil {
		k := len(e.raw)
		ring = e.rt.t.Ring(k + 1 + w)
		e.rt.t.LabelRing(k+1+w, "worker/"+itoa(w))
	}
	for {
		var b *batch
		select {
		case bb, ok := <-in:
			if !ok {
				return
			}
			b = bb
		case <-e.ctx.Done():
			return
		}
		e.process(b, &cl, &scratch, w, ring)
		select {
		case out <- b:
			if e.tel != nil {
				e.tel.queueRes.Set(e.queued(e.res))
			}
		case <-e.ctx.Done():
			return
		}
	}
}

// process is the worker body: decode b if it is raw, then classify,
// tally and observe each record. A record that fails to decode
// (impossible for scanner-approved bytes, but contained anyway) or
// panics the classifier becomes an Item with Err set and still flows
// on, so ordered delivery never stalls on the gap.
func (e *engine) process(b *batch, cl *core.Classifier, scratch *core.Scratch, worker int, ring *trace.Ring) {
	rt, tel, w := e.rt, e.tel, int32(worker)
	n := b.len()
	t := e.now()
	if rt != nil {
		// queue-wait: producer enqueue → this pickup (async in the
		// Chrome export — see trace.QueueWaitName).
		rt.emit(ring, rt.queueWait, rt.t.NewSpanID(), b.span,
			b.enqNS, t, w, b.shard, int64(b.first), int32(n))
	}
	if len(b.offs) > 0 {
		select {
		case b.conns = <-e.freeConns:
		default:
			b.conns = new([]capture.Connection)
		}
		conns := (*b.conns)[:cap(*b.conns)]
		for len(conns) < n {
			conns = append(conns, capture.Connection{})
		}
		*b.conns = conns
		id := e.spanID()
		for i := 0; i < n; i++ {
			it := Item{Index: b.first + i, Conn: &conns[i]}
			s, traced := e.recStart(it.Index)
			if err := capture.DecodeRecord(b.slab[b.offs[i]:b.offs[i+1]], it.Conn); err != nil {
				it.Conn, it.Err = nil, fmt.Errorf("pipeline: decode: %w", err)
			}
			if traced {
				e.recEnd(ring, stageDecode, id, s, w, b.shard, it.Index)
			}
			b.items = append(b.items, it)
		}
		t = e.stageEnd(ring, stageDecode, id, b.span, b, w, t)
	}
	id := e.spanID()
	for i := range b.items {
		it := &b.items[i]
		s, traced := e.recStart(it.Index)
		if it.Err == nil {
			it.Res, it.Err = safeClassify(cl, scratch, it.Conn)
			if it.Err != nil && rt != nil {
				rt.t.Flight().Record("ERROR", "classifier panic contained",
					trace.A("record", it.Index), trace.A("worker", worker), trace.A("err", it.Err))
			}
		}
		if it.Err != nil {
			e.m.errors.Add(1)
		} else {
			e.m.classified.Add(1)
			if it.Res.Signature.IsTampering() {
				e.m.tampering.Add(1)
			}
		}
		if tel != nil {
			tel.observeSig(worker, *it)
		}
		if traced {
			e.recEnd(ring, stageClassify, id, s, w, b.shard, it.Index)
		}
	}
	t = e.stageEnd(ring, stageClassify, id, b.span, b, w, t)
	// Observe runs as a second pass so its cost is timed apart from
	// classification; per-record semantics are unchanged (sequential
	// per worker, before the batch is handed downstream).
	if e.observe != nil {
		id = e.spanID()
		for i := range b.items {
			s, traced := e.recStart(b.items[i].Index)
			e.observe(worker, b.items[i])
			if traced {
				e.recEnd(ring, stageObserve, id, s, w, b.shard, b.items[i].Index)
			}
		}
		e.stageEnd(ring, stageObserve, id, b.span, b, w, t)
	}
}

// safeClassify contains a classifier panic to the one record that
// caused it, converting it to an Item error.
func safeClassify(cl *core.Classifier, s *core.Scratch, c *capture.Connection) (res core.Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			res = core.Result{}
			err = fmt.Errorf("pipeline: classifier panic: %v", r)
		}
	}()
	return cl.ClassifyWith(c, s), nil
}

// stageEnd closes the batch stage that began at start with one clock
// read, which feeds both the stage's latency histogram and its span,
// and returns that time as the next stage's start.
func (e *engine) stageEnd(ring *trace.Ring, stage int, id, parent uint64, b *batch, worker int32, start int64) int64 {
	end := e.now()
	if e.tel != nil {
		e.tel.stageLat[stage].Observe(end - start)
	}
	if e.rt != nil {
		e.rt.emit(ring, e.rt.stage[stage], id, parent, start, end, worker, b.shard, int64(b.first), int32(b.len()))
	}
	return end
}

// spanID allocates a span ID when tracing.
func (e *engine) spanID() uint64 {
	if e.rt == nil {
		return 0
	}
	return e.rt.t.NewSpanID()
}

// recStart reports whether record idx gets per-record spans and, if
// so, the span's start.
func (e *engine) recStart(idx int) (int64, bool) {
	if e.rt == nil || !e.rt.sampled(idx) {
		return 0, false
	}
	return e.now(), true
}

// recEnd emits record idx's span for stage, begun at start.
func (e *engine) recEnd(ring *trace.Ring, stage int, parent uint64, start int64, worker, shard int32, idx int) {
	e.rt.emit(ring, e.rt.record[stage], e.rt.t.NewSpanID(), parent, start, e.now(), worker, shard, int64(idx), 1)
}

// queued reports the records waiting in chs, summed over producers.
func (e *engine) queued(chs []chan *batch) int64 {
	n := 0
	for _, c := range chs {
		n += len(c)
	}
	return int64(n * e.batchSize)
}

// get takes an empty batch for p's records from first on.
func (e *engine) get(p *producer, first int) *batch {
	var b *batch
	select {
	case b = <-e.free:
	default:
		b = &batch{offs: make([]int32, 0, e.batchSize+1), items: make([]Item, 0, e.batchSize)}
	}
	b.first, b.shard = first, p.shard
	b.slab, b.offs, b.items = b.slab[:0], b.offs[:0], b.items[:0]
	if p.scan != nil {
		b.offs = append(b.offs, 0) // the first record's start
		if b.slab == nil {
			b.slab = make([]byte, 0, e.batchSize*512)
		}
	}
	return b
}

// put recycles a delivered batch. Its items are cleared so free
// batches don't pin delivered Results; slab and Connection capacity
// survive, so steady-state decode allocates nothing.
func (e *engine) put(b *batch) {
	clear(b.items)
	if b.conns != nil {
		select {
		case e.freeConns <- b.conns:
		default:
		}
		b.conns = nil
	}
	select {
	case e.free <- b:
	default:
	}
}
