package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
)

// request is one HTTP call of an op and the answer it must get.
type request struct {
	method string
	target string // path and query
	body   []byte
	want   expect
}

// expect describes a correct answer. Every answer must be a 200.
type expect struct {
	// count, when checkCount is set, is the "count" (or, from
	// /api/query, "kept") the response must carry; total, when
	// non-zero, its "total".
	checkCount bool
	count      int
	total      int
	// acked requires an ingest acknowledgement.
	acked bool
}

// do sends one request over the instance's keep-alive connection and
// returns the status and the whole body.
func (inst *instance) do(rq request) (int, []byte, error) {
	var body io.Reader
	if rq.body != nil {
		body = bytes.NewReader(rq.body)
	}
	req, err := http.NewRequest(rq.method, inst.base+rq.target, body)
	if err != nil {
		return 0, nil, err
	}
	resp, err := inst.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, b, err
}

// check verifies one answer against its expectation.
func check(rq request, status int, body []byte) error {
	if status != http.StatusOK {
		return fmt.Errorf("%s %s: status %d: %.200s", rq.method, rq.target, status, body)
	}
	switch {
	case rq.want.acked:
		var out struct{ Status string }
		if err := json.Unmarshal(body, &out); err != nil || out.Status != "acked" {
			return fmt.Errorf("%s %s: not acked: %.200s", rq.method, rq.target, body)
		}
	case rq.want.checkCount:
		var out struct{ Count, Kept, Total int }
		if err := json.Unmarshal(body, &out); err != nil {
			return fmt.Errorf("%s %s: %w", rq.method, rq.target, err)
		}
		if n := out.Count + out.Kept; n != rq.want.count {
			return fmt.Errorf("%s %s: count %d, want %d", rq.method, rq.target, n, rq.want.count)
		}
		if rq.want.total != 0 && out.Total != rq.want.total {
			return fmt.Errorf("%s %s: total %d, want %d", rq.method, rq.target, out.Total, rq.want.total)
		}
	}
	return nil
}
