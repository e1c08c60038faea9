package ingest

import (
	"bytes"
	"context"
	"log/slog"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/profile"
	"repro/internal/store"
)

// writeLog writes a WAL file at path holding profiles' records, as a
// writer that crashed after acking them leaves it.
func writeLog(t testing.TB, path string, profiles []*profile.Profile) {
	t.Helper()
	log := []byte(WALMagic)
	for _, p := range profiles {
		b, err := p.MarshalBytes()
		if err != nil {
			t.Fatal(err)
		}
		log = appendWALRecord(log, b)
	}
	if err := os.WriteFile(path, log, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestCrashRecoveryTwoLogs covers a crash between a hand-off and its
// checkpoint: a sealed log beside the live one. Recovery replays both,
// sealed first, skipping what the store already holds, and checkpoints
// both, so the store ends up equal to a batch build of exactly the acked
// profiles, in order, each once.
func TestCrashRecoveryTwoLogs(t *testing.T) {
	profiles := genProfiles(t, 9, 41)
	sealed, live := profiles[:4], profiles[4:]
	for _, tc := range []struct {
		name   string
		stored []*profile.Profile // committed before the crash
		live   []*profile.Profile // nil: no live log
	}{
		{"store lacks the sealed batch", nil, live},
		{"store holds the sealed batch", sealed, live},
		{"sealed log without a live log", nil, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			st := newDirStore(t)
			if tc.stored != nil {
				th, err := core.FromProfiles(tc.stored, core.Options{})
				if err != nil {
					t.Fatal(err)
				}
				if err := st.AppendSegment(th, 0); err != nil {
					t.Fatal(err)
				}
			}
			walPath := filepath.Join(t.TempDir(), "crash.wal")
			writeLog(t, walPath+".sealed", sealed)
			if tc.live != nil {
				writeLog(t, walPath, tc.live)
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

			if err := CompactAll(st); err != nil {
				t.Fatal(err)
			}
			got, err := st.Load()
			if err != nil {
				t.Fatal(err)
			}
			want, err := core.FromProfiles(slices.Concat(sealed, tc.live), core.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(thicketBytes(t, got), thicketBytes(t, want)) {
				t.Fatalf("recovered store holds %d profiles and differs from a batch build of the %d acked ones",
					got.NumProfiles(), want.NumProfiles())
			}
			if _, err := os.Stat(walPath + ".sealed"); !os.IsNotExist(err) {
				t.Errorf("the sealed log survived recovery (err=%v)", err)
			}
			if b, err := os.ReadFile(walPath); err != nil || string(b) != WALMagic {
				t.Errorf("live log after recovery = %q (err=%v), want only its header", b, err)
			}
		})
	}
}

// blockingHandler is a slog handler that parks every record whose
// message is msg until release is closed, signalling entered first.
type blockingHandler struct {
	msg     string
	entered chan<- struct{}
	release <-chan struct{}
}

func (h blockingHandler) Enabled(context.Context, slog.Level) bool { return true }
func (h blockingHandler) WithAttrs([]slog.Attr) slog.Handler       { return h }
func (h blockingHandler) WithGroup(string) slog.Handler            { return h }

func (h blockingHandler) Handle(_ context.Context, rec slog.Record) error {
	if rec.Message == h.msg {
		h.entered <- struct{}{}
		<-h.release
	}
	return nil
}

// TestAcksDuringFlush: the flusher commits beside the writer. While a
// flush is blocked inside its commit (its "store append" event, logged
// before the commit returns), the next FlushProfiles submits still ack;
// the hand-off after them waits for the blocked flush, so the submit
// after that stays unacked until the flush ends.
func TestAcksDuringFlush(t *testing.T) {
	const flushAt = 4
	profiles := genProfiles(t, 2*flushAt+1, 13)
	st := newDirStore(t)
	entered, release := make(chan struct{}, 3), make(chan struct{}) // one per flush
	store.SetLogger(slog.New(blockingHandler{msg: "store append", entered: entered, release: release}))
	t.Cleanup(func() { store.SetLogger(nil) })
	opts := quietOpts()
	opts.FlushProfiles = flushAt
	in, err := New(st, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { in.Close() })
	unblock := sync.OnceFunc(func() { close(release) })
	t.Cleanup(unblock) // runs first: a failed test must not leave the flush parked

	submit := func(p *profile.Profile) <-chan error {
		done := make(chan error, 1)
		go func() { done <- in.Submit(p) }()
		return done
	}
	for i, p := range profiles[:flushAt] {
		if err := <-submit(p); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	select {
	case <-entered:
	case <-time.After(5 * time.Second):
		t.Fatal("the first flush never reached its commit")
	}
	for i, p := range profiles[flushAt : 2*flushAt] {
		select {
		case err := <-submit(p):
			if err != nil {
				t.Fatalf("submit %d: %v", flushAt+i, err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("submit %d was not acked while a flush committed", flushAt+i)
		}
	}
	late := submit(profiles[2*flushAt])
	select {
	case err := <-late:
		t.Fatalf("submit %d was acked (err=%v) while its hand-off should wait for the blocked flush", 2*flushAt, err)
	case <-time.After(100 * time.Millisecond):
	}
	if n := st.NumSegments(); n != 1 {
		t.Errorf("%d segments while the first flush is blocked, want 1", n)
	}
	unblock()
	if err := <-late; err != nil {
		t.Fatalf("submit %d: %v", 2*flushAt, err)
	}
	if err := in.Close(); err != nil {
		t.Fatal(err)
	}
	segs := st.Segments()
	var sizes []int
	for _, sg := range segs {
		sizes = append(sizes, sg.Profiles)
	}
	if !slices.Equal(sizes, []int{flushAt, flushAt, 1}) {
		t.Errorf("segment sizes %v, want [%d %d 1]: each flush holds one hand-off's batch", sizes, flushAt, flushAt)
	}
	if _, err := os.Stat(in.WALPath() + ".sealed"); !os.IsNotExist(err) {
		t.Errorf("a sealed log survived Close (err=%v)", err)
	}
	if b, err := os.ReadFile(in.WALPath()); err != nil || string(b) != WALMagic {
		t.Errorf("log after Close = %d bytes (err=%v), want only its header", len(b), err)
	}
}
