package selfprofile

import (
	"fmt"
	"log/slog"
	"os"
	"sync"

	"repro/internal/ingest"
	"repro/internal/profile"
	"repro/internal/store"
	"repro/internal/telemetry"
)

// StoreWriter is the store half of the dogfood loop, one per self-data
// store the monitor writes (its samples, and the slow traces its tick
// drains): it streams self-data through an ingest.Ingester into a
// directory store, the path external profiles take. A profile is
// durable in the store's WAL once Append returns, and the ingester's
// compactor keeps the segment count logarithmic in the number of
// flushes. A path that does not exist is not touched until the first
// Append, so enabling a writer on an idle healthy server writes nothing.
type StoreWriter struct {
	path   string
	reg    *telemetry.Registry
	logger *slog.Logger

	mu  sync.Mutex
	st  *store.Store
	ing *ingest.Ingester
}

// NewStoreWriter returns a writer for the directory store at path. A
// store already there is opened now, so its ingester replays a crash's
// leftover WAL records before the first Append; ingest.New refuses a
// single-file store, which is written once. reg hosts the ingester's
// metrics (nil selects telemetry.Default); logger may be nil.
func NewStoreWriter(path string, reg *telemetry.Registry, logger *slog.Logger) (*StoreWriter, error) {
	if logger == nil {
		logger = slog.New(slog.DiscardHandler)
	}
	// Self-data stores sit beside the served store: name the store in
	// every line, the ingester's included.
	w := &StoreWriter{path: path, reg: reg, logger: logger.With("store", path)}
	switch _, err := os.Stat(path); {
	case os.IsNotExist(err):
		return w, nil
	case err != nil:
		return nil, fmt.Errorf("selfprofile: %w", err)
	}
	if err := w.open(); err != nil {
		return nil, err
	}
	return w, nil
}

// open opens the directory store and starts its ingester.
func (w *StoreWriter) open() error {
	st, err := store.Open(w.path)
	if err != nil {
		return err
	}
	ing, err := ingest.New(st, ingest.Options{Registry: w.reg, Logger: w.logger})
	if err != nil {
		st.Close()
		return err
	}
	w.st, w.ing = st, ing
	return nil
}

// Append submits p to the store's ingester, creating the store on first
// use, and returns once p is durable in the WAL.
func (w *StoreWriter) Append(p *profile.Profile) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.ing == nil {
		if err := store.InitDir(w.path, ""); err != nil {
			return err
		}
		if err := w.open(); err != nil {
			return err
		}
		w.logger.Info("dogfood store created")
	}
	return w.ing.Submit(p)
}

// Close closes the ingester, which flushes every acked profile into a
// segment, and then the store. Safe when no Append ever opened it.
func (w *StoreWriter) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.ing == nil {
		return nil
	}
	err := w.ing.Close()
	if cerr := w.st.Close(); err == nil {
		err = cerr
	}
	w.st, w.ing = nil, nil
	return err
}
