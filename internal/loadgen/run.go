package loadgen

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"time"
)

// Target is the live system under test plus the closed-loop hooks the
// self-hosted harness wires in. Only BaseURL is required.
type Target struct {
	// BaseURL roots every request path, e.g. "http://127.0.0.1:8080".
	BaseURL string
	// Client issues the requests; nil selects a dedicated pooled client.
	Client *http.Client
	// Ingest handles Ingest events (the write path). It reports the HTTP
	// status of the ingest request (0 for a non-HTTP sink) so the replay
	// can distinguish a shed submission (429, admission control working
	// as designed) from a failed one. nil counts ingest events as
	// skipped instead of failing the run.
	Ingest func() (status int, err error)
	// OnTick, when set, is called with the tick index every TickEvery of
	// virtual time — the harness paces the self-monitor itself instead of
	// racing a background ticker, keeping the closed loop deterministic.
	OnTick    func(tick int)
	TickEvery time.Duration
	// OnVirtual, when set, is called once when virtual time first
	// reaches At — the arming hook of -regress (injected latency onset).
	OnVirtual []VirtualAction
	// Concurrency bounds in-flight requests. 0 selects 16. The replay is
	// open-loop: arrival instants come from the schedule, not from
	// completions, so a slow server shows up as latency and queueing,
	// not as reduced offered load.
	Concurrency int
}

// VirtualAction runs Do once when replay's virtual clock passes At.
type VirtualAction struct {
	At time.Duration
	Do func()
}

// Sample is one measured request outcome.
type Sample struct {
	Client  string
	Class   string
	Latency time.Duration
	Status  int  // HTTP status, 0 on transport error
	Err     bool // transport error or status >= 400 (shed 429s excluded)
	Ingest  bool
	// Shed marks an ingest submission rejected with 429 by admission
	// control — deliberate load shedding, not a failure.
	Shed bool
}

// Measured is the wall-clock half of a run: what actually happened when
// the deterministic schedule was replayed against the live target.
type Measured struct {
	Samples []Sample
	// Started and Elapsed frame the replay on the wall clock.
	Started time.Time
	Elapsed time.Duration
	// IngestSkipped counts ingest events with no Ingest hook wired.
	IngestSkipped int
	Ticks         int
}

// Run replays the schedule against the target: it sleeps until each
// event's virtual instant, fires the request on a bounded worker pool,
// and records every outcome. Between events it delivers virtual-time
// callbacks (monitor ticks, regression arming) in schedule order.
// ctx cancellation stops the replay early; already-issued requests
// still complete.
func Run(ctx context.Context, sched *Schedule, target Target) (*Measured, error) {
	if target.BaseURL == "" {
		return nil, fmt.Errorf("loadgen: target has no BaseURL")
	}
	client := target.Client
	if client == nil {
		tr := &http.Transport{
			MaxIdleConns:        64,
			MaxIdleConnsPerHost: 64,
		}
		client = &http.Client{Transport: tr}
		// Tear the pool down when the replay ends: parked keep-alive
		// conns (including dial-race spares that never carried a request)
		// otherwise pin the server's graceful Shutdown until they expire.
		defer tr.CloseIdleConnections()
	}
	conc := target.Concurrency
	if conc <= 0 {
		conc = 16
	}
	actions := append([]VirtualAction(nil), target.OnVirtual...)
	sort.SliceStable(actions, func(i, j int) bool { return actions[i].At < actions[j].At })

	m := &Measured{Started: time.Now()}
	var mu sync.Mutex
	record := func(s Sample) {
		mu.Lock()
		m.Samples = append(m.Samples, s)
		mu.Unlock()
	}

	sem := make(chan struct{}, conc)
	var wg sync.WaitGroup
	issue := func(ev Request) {
		defer wg.Done()
		defer func() { <-sem }()
		if ev.Ingest {
			if target.Ingest == nil {
				mu.Lock()
				m.IngestSkipped++
				mu.Unlock()
				return
			}
			t0 := time.Now()
			status, err := target.Ingest()
			shed := status == http.StatusTooManyRequests
			record(Sample{Client: ev.Client, Class: ev.Class,
				Latency: time.Since(t0), Status: status,
				Err:  err != nil || (status >= 400 && !shed),
				Shed: shed, Ingest: true})
			return
		}
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, target.BaseURL+ev.URL(), nil)
		if err != nil {
			record(Sample{Client: ev.Client, Class: ev.Class, Err: true})
			return
		}
		t0 := time.Now()
		resp, err := client.Do(req)
		if err != nil {
			record(Sample{Client: ev.Client, Class: ev.Class, Latency: time.Since(t0), Err: true})
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		record(Sample{Client: ev.Client, Class: ev.Class,
			Latency: time.Since(t0), Status: resp.StatusCode, Err: resp.StatusCode >= 400})
	}

	base := time.Now()
	// deliver runs every virtual-time callback due at or before now.
	nextTick := target.TickEvery
	deliver := func(now time.Duration) {
		for len(actions) > 0 && actions[0].At <= now {
			actions[0].Do()
			actions = actions[1:]
		}
		for target.OnTick != nil && target.TickEvery > 0 && nextTick <= now {
			m.Ticks++
			target.OnTick(m.Ticks)
			nextTick += target.TickEvery
		}
	}

replay:
	for _, ev := range sched.Events {
		at := time.Duration(ev.AtNS)
		deliver(at)
		if d := time.Until(base.Add(at)); d > 0 {
			select {
			case <-time.After(d):
			case <-ctx.Done():
				break replay
			}
		}
		select {
		case sem <- struct{}{}:
		case <-ctx.Done():
			break replay
		}
		wg.Add(1)
		go issue(ev)
	}
	wg.Wait()
	// Run out the virtual clock so trailing callbacks (the final
	// monitor tick over the last interval) still fire.
	if ctx.Err() == nil {
		deliver(sched.Spec.Duration + 1)
	}
	m.Elapsed = time.Since(m.Started)
	return m, nil
}
