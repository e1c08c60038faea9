package server_test

import (
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"sync"
	"testing"

	"repro/internal/server"
)

var (
	benchOnce sync.Once
	benchTS   *httptest.Server
)

// benchServer builds one resident server over the MARBL ensemble,
// shared by all endpoint-latency benchmarks.
func benchServer(b *testing.B) *httptest.Server {
	b.Helper()
	benchOnce.Do(func() {
		srv := memServer(b, buildThicket(b), server.Options{})
		benchTS = httptest.NewServer(srv.Handler())
	})
	return benchTS
}

func benchEndpoint(b *testing.B, path string) {
	ts := benchServer(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			b.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
	}
}

func BenchmarkEndpointHealthz(b *testing.B)  { benchEndpoint(b, "/healthz") }
func BenchmarkEndpointProfiles(b *testing.B) { benchEndpoint(b, "/api/profiles?where=cluster=rztopaz") }
func BenchmarkEndpointStats(b *testing.B)    { benchEndpoint(b, "/api/stats?aggs=mean,std") }
func BenchmarkEndpointGroupBy(b *testing.B)  { benchEndpoint(b, "/api/groupby?by=cluster&aggs=mean") }
func BenchmarkEndpointTree(b *testing.B) {
	benchEndpoint(b, "/api/tree?metric="+url.QueryEscape("Avg time/rank"))
}
