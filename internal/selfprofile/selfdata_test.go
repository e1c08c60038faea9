package selfprofile_test

import (
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/dataframe"
	"repro/internal/ingest"
	"repro/internal/monitor"
	"repro/internal/profile"
	"repro/internal/selfprofile"
	"repro/internal/store"
	"repro/internal/telemetry"
)

// monitorSample is a monitor-shaped profile: the sample's metadata and
// one metric on the "monitor" node.
func monitorSample(t *testing.T, tick int64) *profile.Profile {
	t.Helper()
	p := profile.New()
	p.SetMeta(monitor.MetaTimestamp, dataframe.Int64(tick*10e9))
	p.SetMeta(monitor.MetaTick, dataframe.Int64(tick))
	p.SetMeta(monitor.MetaSource, dataframe.Str("monitor"))
	if err := p.AddSample([]string{"monitor"}, map[string]dataframe.Value{
		"depth": dataframe.Float64(float64(tick)),
	}); err != nil {
		t.Fatal(err)
	}
	return p
}

// TestSelfDataWALRecovery: samples the monitor store's ingester acked,
// durable in its WAL, that never reached a segment because the process
// died first, are in the store once the next monitor opens it, even one
// that closes without taking a sample.
func TestSelfDataWALRecovery(t *testing.T) {
	path := filepath.Join(t.TempDir(), "monitor.tks")
	if err := store.InitDir(path, ""); err != nil {
		t.Fatal(err)
	}
	wal, err := ingest.OpenWAL(path+".wal", ingest.WALOptions{Registry: telemetry.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	for tick := int64(1); tick <= 3; tick++ {
		payload, err := monitorSample(t, tick).MarshalBytes()
		if err != nil {
			t.Fatal(err)
		}
		if err := wal.Append(payload); err != nil {
			t.Fatal(err)
		}
	}
	if err := wal.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := wal.Close(); err != nil {
		t.Fatal(err)
	}

	reg := telemetry.NewRegistry()
	mon, err := monitor.New(monitor.Options{
		Registry: reg,
		Rules:    []monitor.Rule{},
		History:  monitor.HistoryOptions{StorePath: path},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := mon.Close(); err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("thicket_ingest_recovered_total", "", "store", path).Value(); got != 3 {
		t.Errorf("recovered = %d, want 3", got)
	}

	st, err := store.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	th, err := st.Load()
	if err != nil {
		t.Fatal(err)
	}
	if n := th.NumProfiles(); n != 3 {
		t.Fatalf("monitor store holds %d profiles, want the 3 the WAL acked", n)
	}
	ticks, err := th.Metadata.ColumnByName(monitor.MetaTick)
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < th.Metadata.NRows(); r++ {
		if got := ticks.At(r).Int(); got != int64(r+1) {
			t.Errorf("row %d holds tick %d, want %d", r, got, r+1)
		}
	}
}

// TestSelfDataConcurrentAppend: appends racing on one writer, the first
// of which creates the store, each land exactly once.
func TestSelfDataConcurrentAppend(t *testing.T) {
	path := filepath.Join(t.TempDir(), "self.tks")
	w, err := selfprofile.NewStoreWriter(path, telemetry.NewRegistry(), nil)
	if err != nil {
		t.Fatal(err)
	}
	const writers, each = 4, 8
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		batch := make([]*profile.Profile, each)
		for i := range batch {
			batch[i] = monitorSample(t, int64(g*each+i+1))
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, p := range batch {
				if err := w.Append(p); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	st, err := store.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	th, err := st.Load()
	if err != nil {
		t.Fatal(err)
	}
	if n := th.NumProfiles(); n != writers*each {
		t.Fatalf("store holds %d profiles, want %d", n, writers*each)
	}
}
