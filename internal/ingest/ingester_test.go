package ingest

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dataframe"
	"repro/internal/profile"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/telemetry"
)

// genProfiles generates n distinct synthetic MARBL profiles.
func genProfiles(t testing.TB, n int, seed int64) []*profile.Profile {
	t.Helper()
	out := make([]*profile.Profile, n)
	clusters := []sim.MarblCluster{sim.ClusterRZTopaz, sim.ClusterAWS}
	for i := range out {
		p, err := sim.GenerateMarbl(sim.MarblConfig{
			Cluster: clusters[i%2],
			Nodes:   1 + i%3,
			Trial:   i,
			Seed:    seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		out[i] = p
	}
	return out
}

func newDirStore(t testing.TB) *store.Store {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "store")
	if err := store.InitDir(dir, ""); err != nil {
		t.Fatal(err)
	}
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return st
}

func quietOpts() Options {
	return Options{
		Registry:      telemetry.NewRegistry(),
		FlushInterval: time.Hour, // tests flush by count or explicitly
		CompactRun:    -1,        // background compaction off unless asked
	}
}

func thicketBytes(t testing.TB, th *core.Thicket) []byte {
	t.Helper()
	b, err := th.MarshalBytes()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func frameBytes(t testing.TB, f *dataframe.Frame) []byte {
	t.Helper()
	b, err := f.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// answers computes the four query-endpoint results (stats, groupby,
// summary, query) the acceptance criterion names, as raw bytes.
func answers(t testing.TB, th *core.Thicket) map[string][]byte {
	t.Helper()
	out := map[string][]byte{}
	statsTh := th.Copy()
	if err := statsTh.AggregateStats(nil, []string{"mean", "std"}); err != nil {
		t.Fatal(err)
	}
	out["stats"] = frameBytes(t, statsTh.Stats)
	grouped, err := th.GroupedStats([]string{"cluster"}, nil, []string{"mean"})
	if err != nil {
		t.Fatal(err)
	}
	out["groupby"] = frameBytes(t, grouped)
	summary, err := th.MetadataSummary("cluster")
	if err != nil {
		t.Fatal(err)
	}
	out["summary"] = frameBytes(t, summary)
	q, err := th.QueryString(". name == main / *")
	if err != nil {
		t.Fatal(err)
	}
	// The /api/query endpoint renders the matched tree (kept/total/node
	// paths), not the filtered tables — compare what it serves.
	out["query"] = []byte(fmt.Sprintf("%d/%d %v", q.Tree.Len(), th.Tree.Len(), q.Tree.Paths()))
	return out
}

// waitSegments polls the store until it holds at least n live segments,
// failing the test if they do not appear before a deadline.
func waitSegments(t testing.TB, st *store.Store, n int) []store.SegmentInfo {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		segs := st.Segments()
		if len(segs) >= n {
			return segs
		}
		if time.Now().After(deadline) {
			t.Fatalf("expected >= %d segments, got %d after 10s", n, len(segs))
		}
		runtime.Gosched()
	}
}

// TestStreamingMatchesBatch is the differential harness: profiles
// streamed through WAL + L0 flushes with a mid-stream compaction answer
// stats/groupby/summary/query bit-identically to one batch-built
// thicket, and after full compaction the store itself is byte-identical
// to a batch-written store file.
func TestStreamingMatchesBatch(t *testing.T) {
	profiles := genProfiles(t, 24, 7)
	batch, err := core.FromProfiles(profiles, core.Options{})
	if err != nil {
		t.Fatal(err)
	}

	st := newDirStore(t)
	opts := quietOpts()
	opts.FlushProfiles = 4 // small L0 segments: 24 profiles → 6 segments
	in, err := New(st, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range profiles {
		if err := in.Submit(p); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		if i == 11 {
			// Mid-stream compaction: fold the first three L0 segments.
			// Submit acks once the WAL is durable, before the writer
			// loop flushes, so wait for the third flush to land.
			segs := waitSegments(t, st, 3)
			gens := []int64{segs[0].Gen, segs[1].Gen, segs[2].Gen}
			if err := CompactSegments(st, gens, 1); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := in.Close(); err != nil {
		t.Fatal(err)
	}

	streamed, err := st.Load()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := streamed.NumProfiles(), batch.NumProfiles(); got != want {
		t.Fatalf("streamed store holds %d profiles, want %d", got, want)
	}
	wantAns := answers(t, batch)
	for name, got := range answers(t, streamed) {
		if !bytes.Equal(got, wantAns[name]) {
			t.Errorf("%s answer differs between streamed and batch store", name)
		}
	}

	// Full compaction: the store collapses to one segment whose loaded
	// thicket is byte-identical to the batch-built one.
	if err := CompactAll(st); err != nil {
		t.Fatal(err)
	}
	if n := st.NumSegments(); n != 1 {
		t.Fatalf("after CompactAll: %d segments, want 1", n)
	}
	compacted, err := st.Load()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(thicketBytes(t, compacted), thicketBytes(t, batch)) {
		t.Fatal("fully compacted store loads differently from batch thicket")
	}

	// Strongest form: the compacted segment file equals a batch-written
	// store file byte for byte (same dictionary pages, same min/max
	// stats, same everything).
	segs := st.Segments()
	segBytes, err := os.ReadFile(filepath.Join(st.Path(), segs[0].File))
	if err != nil {
		t.Fatal(err)
	}
	batchPath := filepath.Join(t.TempDir(), "batch.tks")
	if err := store.Create(batchPath, batch); err != nil {
		t.Fatal(err)
	}
	batchBytes, err := os.ReadFile(batchPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(segBytes, batchBytes) {
		t.Fatal("compacted segment file differs from batch-built store file")
	}
}

// TestCrashRecoveryTornTail simulates the writer dying mid-WAL-append:
// acked records followed by a torn tail. Reopening must replay exactly
// the acked profiles into the store — bit-identical to a batch build —
// and drop the tail.
func TestCrashRecoveryTornTail(t *testing.T) {
	profiles := genProfiles(t, 5, 99)
	st := newDirStore(t)
	walPath := filepath.Join(t.TempDir(), "crash.wal")

	// Write the "pre-crash" WAL by hand: header, the acked records,
	// then a torn final record (half a frame).
	var log []byte
	log = append(log, WALMagic...)
	for _, p := range profiles {
		b, err := p.MarshalBytes()
		if err != nil {
			t.Fatal(err)
		}
		log = appendWALRecord(log, b)
	}
	torn, err := profiles[0].MarshalBytes()
	if err != nil {
		t.Fatal(err)
	}
	full := appendWALRecord(nil, torn)
	log = append(log, full[:len(full)/2]...) // crash mid-write
	if err := os.WriteFile(walPath, log, 0o644); err != nil {
		t.Fatal(err)
	}

	opts := quietOpts()
	opts.WALPath = walPath
	in, err := New(st, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := in.Close(); err != nil {
		t.Fatal(err)
	}

	recovered, err := st.Load()
	if err != nil {
		t.Fatal(err)
	}
	batch, err := core.FromProfiles(profiles, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(thicketBytes(t, recovered), thicketBytes(t, batch)) {
		t.Fatal("recovered store differs from batch build of the acked profiles")
	}
}

// TestCrashRecoveryAfterFlush covers the other crash window: the store
// flush landed but the WAL reset did not, so replay sees records whose
// profiles the store already holds. Recovery must skip them instead of
// duplicating or failing.
func TestCrashRecoveryAfterFlush(t *testing.T) {
	profiles := genProfiles(t, 6, 5)
	st := newDirStore(t)

	// First incarnation ingests everything cleanly.
	walPath := filepath.Join(t.TempDir(), "crash.wal")
	opts := quietOpts()
	opts.WALPath = walPath
	opts.FlushProfiles = 3
	in, err := New(st, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range profiles {
		if err := in.Submit(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := in.Close(); err != nil {
		t.Fatal(err)
	}
	wantProfiles := st.Info().Profiles

	// Simulate "flushed but WAL not reset": rebuild the WAL as if the
	// last batch's records were still in it, plus one genuinely new
	// profile the crash interrupted before flush.
	fresh := genProfiles(t, 7, 5)[6]
	var log []byte
	log = append(log, WALMagic...)
	for _, p := range append(profiles[3:], fresh) {
		b, err := p.MarshalBytes()
		if err != nil {
			t.Fatal(err)
		}
		log = appendWALRecord(log, b)
	}
	if err := os.WriteFile(walPath, log, 0o644); err != nil {
		t.Fatal(err)
	}

	reg := telemetry.NewRegistry()
	opts2 := quietOpts()
	opts2.WALPath = walPath
	opts2.Registry = reg
	in2, err := New(st, opts2)
	if err != nil {
		t.Fatal(err)
	}
	if err := in2.Close(); err != nil {
		t.Fatal(err)
	}
	if got := st.Info().Profiles; got != wantProfiles+1 {
		t.Fatalf("after recovery: %d profiles, want %d (dedup failed)", got, wantProfiles+1)
	}
	if n := reg.SumCounter("thicket_ingest_dropped_total"); n != 3 {
		t.Errorf("dropped counter = %d, want 3 (the already-flushed records)", n)
	}
}

// TestBackpressure drives the admission queue directly (no writer
// goroutine): once the queue is full, Submit fails fast with
// ErrBacklogged instead of blocking.
func TestBackpressure(t *testing.T) {
	st := newDirStore(t)
	opts := quietOpts()
	opts.QueueDepth = 2
	in, err := newIngester(st, opts) // wired but idle: nothing drains
	if err != nil {
		t.Fatal(err)
	}
	defer in.wal.Close()
	profiles := genProfiles(t, 3, 1)

	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(p *profile.Profile) {
			defer wg.Done()
			in.Submit(p) // parks on the ack channel; fills one slot
		}(profiles[i])
	}
	// Wait for both submissions to occupy the queue.
	deadline := time.Now().Add(5 * time.Second)
	for in.QueueDepth() < 2 {
		if time.Now().After(deadline) {
			t.Fatal("queue never filled")
		}
		time.Sleep(time.Millisecond)
	}
	if err := in.Submit(profiles[2]); !errors.Is(err, ErrBacklogged) {
		t.Fatalf("Submit on full queue = %v, want ErrBacklogged", err)
	}
	// Drain: run the writer loop to ack the two parked submissions,
	// then shut down in production order (submitters first, then queue).
	in.writerWG.Add(1)
	go in.writerLoop()
	wg.Wait()
	in.closed.Store(true)
	in.submitters.Wait()
	close(in.queue)
	in.writerWG.Wait()
	if got := st.Info().Profiles; got != 2 {
		t.Fatalf("store holds %d profiles, want 2", got)
	}
}

// TestConcurrentIngestWithCompaction exercises the full machinery under
// the race detector: many submitters, background compaction, and
// concurrent readers. The final store must hold every profile exactly
// once and pass validation.
func TestConcurrentIngestWithCompaction(t *testing.T) {
	profiles := genProfiles(t, 32, 3)
	st := newDirStore(t)
	opts := quietOpts()
	opts.FlushProfiles = 4
	opts.FlushInterval = 10 * time.Millisecond
	opts.CompactRun = 2
	opts.CompactInterval = 5 * time.Millisecond
	in, err := New(st, opts)
	if err != nil {
		t.Fatal(err)
	}

	stopReads := make(chan struct{})
	var readers sync.WaitGroup
	readers.Add(1)
	go func() {
		defer readers.Done()
		for {
			select {
			case <-stopReads:
				return
			default:
			}
			if st.NumSegments() > 0 {
				if _, err := st.Load(); err != nil {
					t.Error(err)
					return
				}
				st.Metadata()
			}
		}
	}()

	var wg sync.WaitGroup
	errs := make(chan error, len(profiles))
	for _, p := range profiles {
		wg.Add(1)
		go func(p *profile.Profile) {
			defer wg.Done()
			// Retry on backpressure like a real client would.
			for {
				err := in.Submit(p)
				if !errors.Is(err, ErrBacklogged) {
					if err != nil {
						errs <- err
					}
					return
				}
				time.Sleep(time.Millisecond)
			}
		}(p)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if err := in.Close(); err != nil {
		t.Fatal(err)
	}
	close(stopReads)
	readers.Wait()

	th, err := st.Load()
	if err != nil {
		t.Fatal(err)
	}
	if got := th.NumProfiles(); got != len(profiles) {
		t.Fatalf("store holds %d profiles, want %d", got, len(profiles))
	}
	if err := th.Validate(); err != nil {
		t.Fatal(err)
	}
	// The two-segment runs plus the aggressive trigger must have
	// compacted at least once; the store should be well below 8
	// segments (32 profiles / 4 per flush).
	if n := st.NumSegments(); n >= 8 {
		t.Errorf("no compaction happened: %d segments", n)
	}
}

// TestIngesterSubmitAfterClose verifies the close/submit race is safe.
func TestIngesterSubmitAfterClose(t *testing.T) {
	st := newDirStore(t)
	in, err := New(st, quietOpts())
	if err != nil {
		t.Fatal(err)
	}
	if err := in.Close(); err != nil {
		t.Fatal(err)
	}
	if err := in.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
	p := genProfiles(t, 1, 2)[0]
	if err := in.Submit(p); !errors.Is(err, ErrClosed) {
		t.Fatalf("Submit after Close = %v, want ErrClosed", err)
	}
}

// TestSubmitRefusesUncomposable: a profile no flush could compose, even
// alone, is refused at submit with ErrBadPayload, before the WAL, rather
// than acked and then dropped at flush. There are three kinds: a region
// name containing '/', a profile without a value for the metadata
// column a store is indexed by, and a profile whose own nodes give one
// metric two kinds.
func TestSubmitRefusesUncomposable(t *testing.T) {
	mk := func(meta string) *profile.Profile {
		p := profile.New()
		p.SetMeta(meta, dataframe.Int64(1))
		path := []string{"main", "solve"}
		if meta == "slash" {
			path = []string{"main/a/b"}
		}
		if err := p.AddSample(path, map[string]dataframe.Value{"time": dataframe.Float64(1)}); err != nil {
			t.Fatal(err)
		}
		return p
	}
	for _, tc := range []struct {
		level     string
		bad, good *profile.Profile
	}{
		{"profile", mk("slash"), mk("trial")},
		{"trial", mk("other"), mk("trial")},
	} {
		dir := filepath.Join(t.TempDir(), "store")
		if err := store.InitDir(dir, tc.level); err != nil {
			t.Fatal(err)
		}
		st, err := store.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { st.Close() })
		reg := telemetry.NewRegistry()
		opts := quietOpts()
		opts.Registry = reg
		in, err := New(st, opts)
		if err != nil {
			t.Fatal(err)
		}
		payload, err := tc.bad.MarshalBytes()
		if err != nil {
			t.Fatal(err)
		}
		if err := in.SubmitBytes(payload); !errors.Is(err, ErrBadPayload) {
			t.Errorf("level %s: SubmitBytes = %v, want ErrBadPayload", tc.level, err)
		}
		if err := in.Submit(tc.bad); !errors.Is(err, ErrBadPayload) {
			t.Errorf("level %s: Submit = %v, want ErrBadPayload", tc.level, err)
		}
		if err := in.Submit(tc.good); err != nil {
			t.Errorf("level %s: Submit of a composable profile = %v", tc.level, err)
		}
		if err := in.Close(); err != nil {
			t.Fatal(err)
		}
		acked := reg.SumCounter("thicket_ingest_acked_total")
		dropped := reg.SumCounter("thicket_ingest_dropped_total")
		if acked != 1 || dropped != 0 || st.Info().Profiles != 1 {
			t.Errorf("level %s: acked %d, dropped %d, %d profiles stored; want 1, 0, 1",
				tc.level, acked, dropped, st.Info().Profiles)
		}
	}
	for _, payload := range []string{
		`{"format":"thicket-profile","version":1,"metadata":{"trial":1},"nodes":[{"path":["main"],"metrics":{"time":1}},{"path":["main","solve"],"metrics":{"time":1.5}}]}`,
		`{"format":"thicket-profile","version":1,"metadata":{"trial":1},"nodes":[{"path":["main"],"metrics":{"time":null}},{"path":["main","solve"],"metrics":{"time":2}}]}`,
	} {
		st := newDirStore(t)
		reg := telemetry.NewRegistry()
		opts := quietOpts()
		opts.Registry = reg
		in, err := New(st, opts)
		if err != nil {
			t.Fatal(err)
		}
		if err := in.SubmitBytes([]byte(payload)); !errors.Is(err, ErrBadPayload) || !strings.Contains(err.Error(), `column "time"`) {
			t.Errorf("SubmitBytes(%s) = %v, want ErrBadPayload naming column \"time\"", payload, err)
		}
		if err := in.Close(); err != nil {
			t.Fatal(err)
		}
		acked := reg.SumCounter("thicket_ingest_acked_total")
		dropped := reg.SumCounter("thicket_ingest_dropped_total")
		if acked != 0 || dropped != 0 || st.NumSegments() != 0 {
			t.Errorf("%s: acked %d, dropped %d, %d segments; want 0, 0, 0", payload, acked, dropped, st.NumSegments())
		}
	}
}

// TestNewRefusesSingleFile: a single-file store is written once, so New
// refuses it, naming the path, before it opens a WAL; the store file is
// left as Create wrote it.
func TestNewRefusesSingleFile(t *testing.T) {
	th, err := core.FromProfiles(genProfiles(t, 2, 3), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "one.tks")
	if err := store.Create(path, th); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	st, err := store.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if in, err := New(st, quietOpts()); err == nil || !strings.Contains(err.Error(), path) {
		if in != nil {
			in.Close()
		}
		t.Fatalf("New on a single-file store: err = %v, want one naming %s", err, path)
	}
	if _, err := os.Stat(path + ".wal"); !os.IsNotExist(err) {
		t.Errorf("a refused store got a WAL (err=%v)", err)
	}
	if after, err := os.ReadFile(path); err != nil || !bytes.Equal(before, after) {
		t.Errorf("a refused store changed (err=%v)", err)
	}
}

// TestPlanRun pins the compaction planner's choices.
func TestPlanRun(t *testing.T) {
	seg := func(gen int64, level int) store.SegmentInfo {
		return store.SegmentInfo{Gen: gen, Level: level}
	}
	cases := []struct {
		name  string
		segs  []store.SegmentInfo
		min   int
		want  []int64
		none  bool
		level int
	}{
		{"empty", nil, 2, nil, true, 0},
		{"below threshold", []store.SegmentInfo{seg(1, 0)}, 2, nil, true, 0},
		{"simple run", []store.SegmentInfo{seg(1, 0), seg(2, 0)}, 2, []int64{1, 2}, false, 0},
		{"prefers lower level", []store.SegmentInfo{
			seg(1, 1), seg(2, 1), seg(3, 0), seg(4, 0)}, 2, []int64{3, 4}, false, 0},
		{"level break splits runs", []store.SegmentInfo{
			seg(1, 0), seg(2, 1), seg(3, 0)}, 2, nil, true, 0},
		{"long run", []store.SegmentInfo{
			seg(5, 1), seg(1, 0), seg(2, 0), seg(3, 0)}, 3, []int64{1, 2, 3}, false, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			gens, level, ok := planRun(tc.segs, tc.min)
			if tc.none {
				if ok {
					t.Fatalf("planRun = %v, want none", gens)
				}
				return
			}
			if !ok || level != tc.level || fmt.Sprint(gens) != fmt.Sprint(tc.want) {
				t.Fatalf("planRun = %v level %d ok %v, want %v level %d", gens, level, ok, tc.want, tc.level)
			}
		})
	}
}

// TestSegmentLifecycleUnderLoad checks refcounted retirement: a reader
// holding a pinned load while compaction retires its segments must
// finish cleanly, and the retired files must be gone afterwards.
func TestSegmentLifecycleUnderLoad(t *testing.T) {
	profiles := genProfiles(t, 8, 11)
	st := newDirStore(t)
	for i := 0; i < 4; i++ {
		th, err := core.FromProfiles(profiles[i*2:i*2+2], core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if err := st.AppendSegment(th, 0); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 5; j++ {
				if _, err := st.Load(); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := CompactAll(st); err != nil {
			t.Error(err)
		}
	}()
	wg.Wait()
	if n := st.NumSegments(); n != 1 {
		t.Fatalf("%d segments after CompactAll, want 1", n)
	}
	entries, err := os.ReadDir(st.Path())
	if err != nil {
		t.Fatal(err)
	}
	segFiles := 0
	for _, e := range entries {
		if matched, _ := filepath.Match("seg-*.tks", e.Name()); matched {
			segFiles++
		}
	}
	if segFiles != 1 {
		t.Errorf("%d segment files on disk, want 1 (retired files must be deleted)", segFiles)
	}
	th, err := st.Load()
	if err != nil {
		t.Fatal(err)
	}
	if got := th.NumProfiles(); got != len(profiles) {
		t.Fatalf("store holds %d profiles, want %d", got, len(profiles))
	}
}

// TestPipelineDepthGauges pins the ingest-pipeline depth gauges the
// dashboard scrapes: queue depth and WAL fsync latency (per-submit),
// live level-0 segment count (per-flush), and the compactor's last-run
// timestamp (per-merge) — all present in the /metrics text by name.
func TestPipelineDepthGauges(t *testing.T) {
	st := newDirStore(t)
	opts := quietOpts()
	opts.FlushProfiles = 4
	reg := opts.Registry
	in, err := New(st, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range genProfiles(t, 8, 3) {
		if err := in.Submit(p); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	if err := in.Close(); err != nil {
		t.Fatal(err)
	}

	l0 := reg.Gauge("thicket_ingest_l0_segments", "", "store", st.Path())
	if got := l0.Value(); got != 2 {
		t.Errorf("l0 segment gauge = %d after two flushes, want 2", got)
	}
	last := reg.Gauge("thicket_compaction_last_run_timestamp_seconds", "", "store", st.Path())
	if got := last.Value(); got != 0 {
		t.Errorf("compactor last-run gauge = %d before any merge, want 0", got)
	}

	// A second ingester on the same registry folds the L0 run; the
	// gauges must move with the segment set.
	opts2 := quietOpts()
	opts2.Registry = reg
	opts2.CompactRun = 2
	in2, err := New(st, opts2)
	if err != nil {
		t.Fatal(err)
	}
	if err := in2.CompactAll(); err != nil {
		t.Fatal(err)
	}
	if err := in2.Close(); err != nil {
		t.Fatal(err)
	}
	if got := l0.Value(); got != 0 {
		t.Errorf("l0 segment gauge = %d after full compaction, want 0", got)
	}
	if last.Value() == 0 {
		t.Error("compactor last-run gauge still 0 after a merge")
	}

	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{
		"thicket_wal_fsync_seconds",
		"thicket_ingest_queue_depth",
		"thicket_ingest_l0_segments",
		"thicket_compaction_last_run_timestamp_seconds",
	} {
		if !strings.Contains(sb.String(), name) {
			t.Errorf("/metrics text missing %q", name)
		}
	}
}
