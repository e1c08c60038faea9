package ingest

import (
	"errors"
	"fmt"
	"log/slog"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/profile"
	"repro/internal/store"
	"repro/internal/telemetry"
)

// ErrBacklogged is returned by Submit when the admission queue is full:
// the caller should shed the request (HTTP 429 + Retry-After) rather
// than block a query-serving goroutine behind the write path.
var ErrBacklogged = errors.New("ingest: queue full")

// ErrClosed is returned by Submit after Close.
var ErrClosed = errors.New("ingest: ingester closed")

// ErrBadPayload is returned by SubmitBytes when the payload does not
// decode as a profile, and by Submit and SubmitBytes for a profile no
// flush could compose, even alone (core.CheckProfile) — a client error
// (HTTP 400), not a server fault.
var ErrBadPayload = errors.New("ingest: bad profile payload")

// Options configures an Ingester.
type Options struct {
	// WALPath locates the write-ahead log; empty derives
	// "<store path>.wal".
	WALPath string
	// QueueDepth bounds the admission queue; submissions beyond it are
	// rejected with ErrBacklogged. 0 selects 256.
	QueueDepth int
	// FlushProfiles flushes the in-memory batch to a level-0 segment
	// once this many profiles are acked. 0 selects 16.
	FlushProfiles int
	// FlushInterval flushes a non-empty batch even when small, bounding
	// how long an acked profile stays WAL-only. 0 selects 500ms.
	FlushInterval time.Duration
	// CompactRun merges any run of this many adjacent same-level
	// segments into one segment a level up. 0 selects 4; <0 disables
	// background compaction.
	CompactRun int
	// CompactInterval paces the compactor's poll; it is also kicked
	// after every L0 flush. 0 selects 2s.
	CompactInterval time.Duration
	// Sync selects the WAL fsync policy (default group commit).
	Sync SyncPolicy
	// Registry receives ingest metrics; nil selects telemetry.Default.
	Registry *telemetry.Registry
	Logger   *slog.Logger
}

func (o Options) withDefaults(storePath string) Options {
	if o.WALPath == "" {
		o.WALPath = storePath + ".wal"
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = 256
	}
	if o.FlushProfiles <= 0 {
		o.FlushProfiles = 16
	}
	if o.FlushInterval <= 0 {
		o.FlushInterval = 500 * time.Millisecond
	}
	if o.CompactRun == 0 {
		o.CompactRun = 4
	}
	if o.CompactInterval <= 0 {
		o.CompactInterval = 2 * time.Second
	}
	if o.Registry == nil {
		o.Registry = telemetry.Default
	}
	if o.Logger == nil {
		o.Logger = slog.New(slog.DiscardHandler)
	}
	return o
}

type submitReq struct {
	payload []byte
	p       *profile.Profile
	done    chan error
}

// Ingester is the streaming write path: a bounded admission queue in
// front of a single writer goroutine that group-commits profiles to the
// WAL (acking each submitter only after its record is durable) and hands
// batches of acked profiles to a flusher, which writes each batch as a
// level-0 store segment, and a background compactor folding segment runs
// upward. Safe for concurrent Submit.
type Ingester struct {
	st   *store.Store
	wal  *WAL
	opts Options
	log  *slog.Logger
	// compose is the store's ComposeOptions, read once: they derive from
	// the store's profile level, which never changes after open.
	compose core.Options

	queue      chan submitReq
	closed     atomic.Bool
	submitters sync.WaitGroup
	writerWG   sync.WaitGroup
	compactWG  sync.WaitGroup
	stop       chan struct{}
	kick       chan struct{}

	queueDepth  *telemetry.Gauge
	accepted    *telemetry.Counter
	rejected    *telemetry.Counter
	acked       *telemetry.Counter
	dropped     *telemetry.Counter
	recoveredC  *telemetry.Counter
	flushes     *telemetry.Counter
	compactions *telemetry.Counter
	compactS    *telemetry.Histogram
	backlog     *telemetry.Gauge
	l0Segments  *telemetry.Gauge
	compactLast *telemetry.Gauge
}

// New opens the WAL (replaying any crash residue into the store as a
// level-0 segment) and starts the writer, which runs the flusher, and
// the compactor goroutines.
// The store must be a directory store, the one layout that grows; any
// other is refused before the WAL is opened. It must remain open for
// the Ingester's lifetime; Close the Ingester first.
func New(st *store.Store, opts Options) (*Ingester, error) {
	in, err := newIngester(st, opts)
	if err != nil {
		return nil, err
	}
	if err := in.recover(); err != nil {
		in.wal.Close()
		return nil, err
	}
	in.updateBacklog()
	in.writerWG.Add(1)
	go in.writerLoop()
	if in.opts.CompactRun > 0 {
		in.compactWG.Add(1)
		go in.compactLoop()
	}
	return in, nil
}

// newIngester builds the wired-but-idle ingester: WAL open, metrics
// registered, no goroutines yet. Tests drive the pieces directly.
func newIngester(st *store.Store, opts Options) (*Ingester, error) {
	if !st.IsDir() {
		return nil, fmt.Errorf("ingest: %s: not a directory store; a single-file store is written once", st.Path())
	}
	opts = opts.withDefaults(st.Path())
	wal, err := OpenWAL(opts.WALPath, WALOptions{Sync: opts.Sync, Registry: opts.Registry})
	if err != nil {
		return nil, err
	}
	reg := opts.Registry
	in := &Ingester{
		st:      st,
		wal:     wal,
		opts:    opts,
		log:     opts.Logger,
		compose: st.ComposeOptions(),
		queue:   make(chan submitReq, opts.QueueDepth),
		stop:    make(chan struct{}),
		kick:    make(chan struct{}, 1),
		queueDepth: reg.Gauge("thicket_ingest_queue_depth",
			"Profiles waiting in the ingest admission queue.", "store", st.Path()),
		accepted: reg.Counter("thicket_ingest_accepted_total",
			"Profiles admitted to the ingest queue.", "store", st.Path()),
		rejected: reg.Counter("thicket_ingest_rejected_total",
			"Profiles shed because the ingest queue was full.", "store", st.Path()),
		acked: reg.Counter("thicket_ingest_acked_total",
			"Profiles durably acknowledged (WAL-fsynced).", "store", st.Path()),
		dropped: reg.Counter("thicket_ingest_dropped_total",
			"Acked profiles a flush did not store (duplicate or invalid), WAL-recovered ones the store already held included.", "store", st.Path()),
		recoveredC: reg.Counter("thicket_ingest_recovered_total",
			"Profiles recovered from the WAL at startup.", "store", st.Path()),
		flushes: reg.Counter("thicket_ingest_l0_flushes_total",
			"Level-0 segment flushes.", "store", st.Path()),
		compactions: reg.Counter("thicket_compactions_total",
			"Background segment compactions.", "store", st.Path()),
		compactS: reg.Histogram("thicket_compaction_seconds",
			"Segment compaction duration.", "store", st.Path()),
		backlog: reg.Gauge("thicket_compaction_backlog_segments",
			"Segments currently eligible for compaction.", "store", st.Path()),
		l0Segments: reg.Gauge("thicket_ingest_l0_segments",
			"Live level-0 segments not yet merged by the compactor.", "store", st.Path()),
		compactLast: reg.Gauge("thicket_compaction_last_run_timestamp_seconds",
			"Unix time the compactor last completed a merge (0 = never).", "store", st.Path()),
	}
	return in, nil
}

// recover replays the records a crash left in the sealed log and then
// the live one into a level-0 segment, and then checkpoints both logs.
// Profiles the store already holds are skipped — the crash may have
// landed between a flush's commit and its checkpoint — so replay is
// idempotent.
func (in *Ingester) recover() error {
	records := in.wal.Recovered()
	if len(records) == 0 {
		return nil
	}
	profiles := make([]*profile.Profile, 0, len(records))
	for i, rec := range records {
		p, err := profile.FromBytes(rec)
		if err != nil {
			// The CRC passed, so this is a mis-framed writer bug, not
			// disk corruption; surface it rather than silently dropping.
			return fmt.Errorf("ingest: wal %s: record %d: %w", in.wal.Path(), i, err)
		}
		profiles = append(profiles, p)
	}
	flushed, droppedN := in.appendBestEffort(profiles)
	in.recoveredC.Add(int64(flushed))
	if err := in.wal.Reset(); err != nil {
		return err
	}
	in.log.Info("ingest recovery",
		"component", "ingest", "records", len(records),
		"flushed", flushed, "skipped", droppedN)
	return nil
}

// Submit admits one profile and blocks until it is durable (its WAL
// record fsynced) or rejected. A full queue fails fast with
// ErrBacklogged — map it to 429.
func (in *Ingester) Submit(p *profile.Profile) error {
	payload, err := p.MarshalBytes()
	if err != nil {
		return fmt.Errorf("ingest: encode profile: %w", err)
	}
	return in.submit(payload, p)
}

// SubmitBytes is Submit for a pre-encoded profile (the HTTP body):
// the payload is validated by decoding, then written to the WAL as-is.
func (in *Ingester) SubmitBytes(payload []byte) error {
	p, err := profile.FromBytes(payload)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrBadPayload, err)
	}
	return in.submit(payload, p)
}

func (in *Ingester) submit(payload []byte, p *profile.Profile) error {
	in.submitters.Add(1)
	defer in.submitters.Done()
	if in.closed.Load() {
		return ErrClosed
	}
	if err := core.CheckProfile(p, in.compose); err != nil {
		return fmt.Errorf("%w: %v", ErrBadPayload, err)
	}
	req := submitReq{payload: payload, p: p, done: make(chan error, 1)}
	select {
	case in.queue <- req:
		in.accepted.Inc()
		in.queueDepth.Set(int64(len(in.queue)))
	default:
		in.rejected.Inc()
		return ErrBacklogged
	}
	return <-req.done
}

// writerLoop is the single WAL writer: it drains the queue in batches,
// group-commits each batch with one fsync, acks the submitters, and
// hands accumulated profiles off to be flushed to a level-0 segment. A
// hand-off seals the log and starts the flush on its own goroutine; it
// first waits for the previous flush, so at most one runs and segments
// land in arrival order. The loop returns once the last flush is done.
func (in *Ingester) writerLoop() {
	defer in.writerWG.Done()
	var pending []*profile.Profile
	var flushing chan struct{} // closed when the last flush handed off ends
	defer func() {
		if flushing != nil {
			<-flushing
		}
	}()
	timer := time.NewTimer(in.opts.FlushInterval)
	defer timer.Stop()
	flush := func() {
		if len(pending) == 0 {
			return
		}
		if flushing != nil {
			<-flushing
		}
		sealed, err := in.wal.Seal()
		if err != nil {
			in.log.Error("ingest wal seal failed", "component", "ingest", "error", err.Error())
		}
		done := make(chan struct{})
		go func(batch []*profile.Profile) {
			defer close(done)
			in.flushL0(batch, sealed)
		}(pending)
		flushing, pending = done, nil
	}
	for {
		select {
		case req, ok := <-in.queue:
			if !ok {
				flush()
				return
			}
			batch := []submitReq{req}
			closedNow := false
		drain:
			for len(batch) < in.opts.QueueDepth {
				select {
				case r, ok := <-in.queue:
					if !ok {
						closedNow = true
						break drain
					}
					batch = append(batch, r)
				default:
					break drain
				}
			}
			in.queueDepth.Set(int64(len(in.queue)))
			pending = append(pending, in.commit(batch)...)
			if len(pending) >= in.opts.FlushProfiles {
				flush()
			}
			if closedNow {
				flush()
				return
			}
		case <-timer.C:
			flush()
			timer.Reset(in.opts.FlushInterval)
		}
	}
}

// commit appends a batch to the WAL, fsyncs once (group commit), and
// acks every submitter. Returns the profiles now durable.
func (in *Ingester) commit(batch []submitReq) []*profile.Profile {
	sp := telemetry.StartOp("ingest.commit")
	if sp != nil {
		sp.SetAttr("batch", fmt.Sprint(len(batch)))
		defer sp.End()
	}
	var err error
	for _, req := range batch {
		if err = in.wal.Append(req.payload); err != nil {
			break
		}
	}
	if err == nil {
		err = in.wal.Sync()
	}
	if err != nil {
		// Nothing in this batch is durable; fail every submitter.
		in.log.Error("ingest wal write failed", "component", "ingest", "error", err.Error())
		for _, req := range batch {
			req.done <- err
		}
		return nil
	}
	profiles := make([]*profile.Profile, len(batch))
	for i, req := range batch {
		profiles[i] = req.p
		req.done <- nil
	}
	in.acked.Add(int64(len(batch)))
	return profiles
}

// flushL0 is the flusher: it writes a handed-off batch of acked profiles
// as one level-0 segment and, when the hand-off sealed the log holding
// them, checkpoints by deleting it. Failures fall back to per-profile
// appends so one bad profile (a duplicate index, say) cannot wedge the
// whole stream.
func (in *Ingester) flushL0(pending []*profile.Profile, sealed bool) {
	sp := telemetry.StartOp("ingest.flushL0")
	if sp != nil {
		sp.SetAttr("profiles", fmt.Sprint(len(pending)))
		defer sp.End()
	}
	in.appendBestEffort(pending)
	in.flushes.Inc()
	if sealed {
		if err := in.wal.DropSealed(); err != nil {
			// The store holds everything; a sealed log left behind
			// only means replay will re-skip these profiles after a
			// crash, and the next seal renames over it.
			in.log.Error("ingest wal checkpoint failed", "component", "ingest", "error", err.Error())
		}
	}
	in.updateBacklog()
	select {
	case in.kick <- struct{}{}:
	default:
	}
}

// appendBestEffort lands profiles in the store as one level-0 segment,
// falling back to per-profile appends on failure. Returns how many
// landed and how many were dropped (logged + counted).
func (in *Ingester) appendBestEffort(profiles []*profile.Profile) (flushed, dropped int) {
	if len(profiles) == 0 {
		return 0, 0
	}
	th, err := in.st.ComposeProfiles(profiles)
	if err == nil {
		err = in.st.AppendSegment(th, 0)
	}
	if err == nil {
		return len(profiles), 0
	}
	for _, p := range profiles {
		th, perr := in.st.ComposeProfiles([]*profile.Profile{p})
		if perr == nil {
			perr = in.st.AppendSegment(th, 0)
		}
		if perr != nil {
			dropped++
			in.dropped.Inc()
			in.log.Warn("ingest profile dropped at flush",
				"component", "ingest", "error", perr.Error())
			continue
		}
		flushed++
	}
	return flushed, dropped
}

// compactLoop runs background compaction: after every flush kick (and
// on a slow poll), merge the first eligible run of adjacent same-level
// segments into one segment a level up.
func (in *Ingester) compactLoop() {
	defer in.compactWG.Done()
	ticker := time.NewTicker(in.opts.CompactInterval)
	defer ticker.Stop()
	for {
		select {
		case <-in.stop:
			return
		case <-in.kick:
		case <-ticker.C:
		}
		// Keep merging while eligible runs exist so a burst of L0
		// segments drains fully, not one run per tick.
		for {
			gens, level, ok := planRun(in.st.Segments(), in.opts.CompactRun)
			if !ok {
				break
			}
			if err := in.compactRun(gens, level); err != nil {
				in.log.Error("ingest compaction failed",
					"component", "ingest", "error", err.Error())
				break
			}
			select {
			case <-in.stop:
				return
			default:
			}
		}
		in.updateBacklog()
	}
}

// planRun picks the first (lowest-level, then leftmost) run of at least
// minRun adjacent same-level segments. Merging a contiguous run
// preserves the store's logical arrival order.
func planRun(segs []store.SegmentInfo, minRun int) (gens []int64, level int, ok bool) {
	bestLevel := -1
	var best []int64
	for i := 0; i < len(segs); {
		j := i
		for j < len(segs) && segs[j].Level == segs[i].Level {
			j++
		}
		if j-i >= minRun && (bestLevel < 0 || segs[i].Level < bestLevel) {
			bestLevel = segs[i].Level
			best = best[:0]
			for k := i; k < j; k++ {
				best = append(best, segs[k].Gen)
			}
		}
		i = j
	}
	if bestLevel < 0 {
		return nil, 0, false
	}
	return best, bestLevel, true
}

// compactRun merges the named same-level run into one segment at
// level+1.
func (in *Ingester) compactRun(gens []int64, level int) error {
	sp := telemetry.StartOp("ingest.compact")
	if sp != nil {
		sp.SetAttr("segments", fmt.Sprint(len(gens)))
		sp.SetAttr("level", fmt.Sprint(level))
		defer sp.End()
	}
	start := time.Now()
	if err := CompactSegments(in.st, gens, level+1); err != nil {
		return err
	}
	in.compactions.Inc()
	in.compactS.Observe(time.Since(start).Seconds())
	in.compactLast.Set(time.Now().Unix())
	in.log.Info("ingest compaction",
		"component", "ingest", "merged_segments", len(gens),
		"from_level", level,
		"latency_us", time.Since(start).Microseconds())
	return nil
}

// CompactAll force-merges every live segment into a single top-level
// segment — maintenance/testing hook, not part of the background cycle.
func (in *Ingester) CompactAll() error {
	segs := in.st.Segments()
	if len(segs) < 2 {
		return nil
	}
	gens := make([]int64, len(segs))
	maxLevel := 0
	for i, sg := range segs {
		gens[i] = sg.Gen
		if sg.Level > maxLevel {
			maxLevel = sg.Level
		}
	}
	if err := in.compactRun(gens, maxLevel); err != nil {
		return err
	}
	in.updateBacklog()
	return nil
}

// Backlog reports how many segments currently sit in compaction-
// eligible runs.
func (in *Ingester) Backlog() int {
	n := 0
	segs := in.st.Segments()
	for {
		gens, _, ok := planRun(segs, in.opts.CompactRun)
		if !ok {
			return n
		}
		n += len(gens)
		// Remove the counted run and rescan for deeper runs.
		drop := map[int64]bool{}
		for _, g := range gens {
			drop[g] = true
		}
		rest := segs[:0]
		for _, sg := range segs {
			if !drop[sg.Gen] {
				rest = append(rest, sg)
			}
		}
		segs = rest
	}
}

// updateBacklog refreshes the pipeline-depth gauges from the live
// segment set: level-0 segment count always, compaction backlog only
// when a compactor is configured.
func (in *Ingester) updateBacklog() {
	n := 0
	for _, sg := range in.st.Segments() {
		if sg.Level == 0 {
			n++
		}
	}
	in.l0Segments.Set(int64(n))
	if in.opts.CompactRun > 0 {
		in.backlog.Set(int64(in.Backlog()))
	}
}

// QueueDepth reports the current admission-queue occupancy.
func (in *Ingester) QueueDepth() int { return len(in.queue) }

// WALPath reports the write-ahead log's path.
func (in *Ingester) WALPath() string { return in.wal.Path() }

// Close stops admissions, drains and flushes everything already acked,
// stops the compactor, and closes the WAL. The store stays open — it
// belongs to the caller.
func (in *Ingester) Close() error {
	if in.closed.Swap(true) {
		return nil
	}
	in.submitters.Wait() // no Submit can touch the queue past here
	close(in.queue)
	in.writerWG.Wait()
	close(in.stop)
	in.compactWG.Wait()
	return in.wal.Close()
}
