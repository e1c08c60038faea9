package main

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/ingest"
	"repro/internal/profile"
	"repro/internal/server"
	"repro/internal/store"
	"repro/internal/telemetry"
)

// baseLevels are the LSM levels of the five base segments. The
// compactor merges runs of four adjacent same-level segments, so
// alternating levels keep the five-segment layout intact.
var baseLevels = []int{3, 2, 3, 2, 3}

// maxIngest bounds the profiles one ingest run may post. Each 1024
// profiles compact into one level-3 segment at the tail; a third such
// segment would join the last base segment in a run of four.
const maxIngest = 3*1024 - 1

// setupTimes splits one set-up by layer.
type setupTimes struct {
	Decode, Compose, Append, Open, Load, Total time.Duration
}

// instance is one served store: the program's serving stack behind a
// loopback listener and the one keep-alive client that drives it.
type instance struct {
	dir    string
	st     *store.Store
	th     *core.Thicket
	srv    *server.Server
	in     *ingest.Ingester
	reg    *telemetry.Registry
	hs     *http.Server
	served chan error
	client *http.Client
	base   string
}

// wrapHandler lets the traced run interpose on ServeHTTP and on the
// ingest sink; the untraced run passes nil.
type wrapHandler struct {
	handler func(http.Handler) http.Handler
	sink    func(server.IngestSink) server.IngestSink
}

// setUp builds and serves the base store from the profile files in
// inputs, timing each layer: decode every file, compose one thicket
// per Figure-13 row, write a five-segment directory store, open it,
// load it, start the server (and the ingester), and wait for the first
// answered request.
func setUp(inputs, dir string, withIngest bool, wrap *wrapHandler) (*instance, setupTimes, error) {
	var t setupTimes
	start := time.Now()

	names, err := filepath.Glob(filepath.Join(inputs, baseDir, "r*.json"))
	if err != nil {
		return nil, t, err
	}
	sort.Strings(names)
	rows := map[string][]*profile.Profile{}
	var order []string
	for _, name := range names {
		b, err := os.ReadFile(name)
		if err != nil {
			return nil, t, err
		}
		p, err := profile.FromBytes(b)
		if err != nil {
			return nil, t, fmt.Errorf("decode %s: %w", name, err)
		}
		row := strings.SplitN(filepath.Base(name), "-", 2)[0]
		if _, ok := rows[row]; !ok {
			order = append(order, row)
		}
		rows[row] = append(rows[row], p)
	}
	if len(order) != len(baseLevels) {
		return nil, t, fmt.Errorf("found %d Figure-13 rows under %s, want %d", len(order), inputs, len(baseLevels))
	}
	t.Decode = time.Since(start)

	mark := time.Now()
	thickets := make([]*core.Thicket, len(order))
	for i, row := range order {
		if thickets[i], err = core.FromProfiles(rows[row], core.Options{}); err != nil {
			return nil, t, err
		}
	}
	t.Compose = time.Since(mark)

	mark = time.Now()
	if err := store.InitDir(dir, thickets[0].ProfileLevelName()); err != nil {
		return nil, t, err
	}
	w, err := store.Open(dir)
	if err != nil {
		return nil, t, err
	}
	for i, th := range thickets {
		if err := w.AppendSegment(th, baseLevels[i]); err != nil {
			w.Close()
			return nil, t, err
		}
	}
	if err := w.Close(); err != nil {
		return nil, t, err
	}
	t.Append = time.Since(mark)

	mark = time.Now()
	st, err := store.Open(dir)
	if err != nil {
		return nil, t, err
	}
	t.Open = time.Since(mark)

	mark = time.Now()
	th, err := st.Load()
	if err != nil {
		st.Close()
		return nil, t, err
	}
	t.Load = time.Since(mark)

	inst := &instance{dir: dir, st: st, th: th, reg: telemetry.NewRegistry()}
	opts := server.Options{Registry: inst.reg, Logger: slog.New(slog.NewTextHandler(io.Discard, nil))}
	if withIngest {
		// Count-triggered flushes only: a timer flush would make the
		// segment layout, and so the cost of every later read, depend
		// on how fast the host ran.
		inst.in, err = ingest.New(st, ingest.Options{FlushInterval: time.Hour, Registry: inst.reg})
		if err != nil {
			st.Close()
			return nil, t, err
		}
		opts.Ingest = inst.in
		if wrap != nil && wrap.sink != nil {
			opts.Ingest = wrap.sink(inst.in)
		}
	}
	inst.srv = server.New(th, st, opts)
	var h http.Handler = inst.srv.Handler()
	if wrap != nil && wrap.handler != nil {
		h = wrap.handler(h)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		inst.close()
		return nil, t, err
	}
	inst.hs = &http.Server{Handler: h}
	inst.served = make(chan error, 1)
	go func() { inst.served <- inst.hs.Serve(ln) }()
	inst.base = "http://" + ln.Addr().String()
	inst.client = &http.Client{Transport: &http.Transport{
		MaxIdleConns: 1, MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1,
		DisableCompression: true,
	}}
	status, _, err := inst.do(request{method: http.MethodGet, target: "/healthz"})
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("GET /healthz: status %d", status)
	}
	if err != nil {
		inst.close()
		return nil, t, err
	}
	t.Total = time.Since(start)
	return inst, t, nil
}

// close stops the listener, the ingester and the store, and waits for
// the serving goroutine to return.
func (inst *instance) close() error {
	var errs []error
	if inst.client != nil {
		inst.client.CloseIdleConnections()
	}
	if inst.hs != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		errs = append(errs, inst.hs.Shutdown(ctx))
		cancel()
		if err := <-inst.served; err != http.ErrServerClosed {
			errs = append(errs, err)
		}
	}
	if inst.in != nil {
		errs = append(errs, inst.in.Close())
	}
	errs = append(errs, inst.st.Close())
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
