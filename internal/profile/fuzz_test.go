package profile

import "testing"

// FuzzReadCaliperJSON hardens the Caliper json-split reader likewise.
func FuzzReadCaliperJSON(f *testing.F) {
	f.Add([]byte(caliSample))
	f.Add([]byte(`{"data":[],"columns":["path"],"nodes":[{"label":"a","parent":null}]}`))
	f.Add([]byte(`{"data":[[1.5,0]],"columns":["t","path"],"column_metadata":[{"is_value":true},{"is_value":false}],"nodes":[{"label":"a","parent":null}]}`))
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"nodes":[{"label":"a","parent":0}],"columns":["path"],"data":[]}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := CaliperFromBytes(data)
		if err != nil {
			return
		}
		if verr := p.Validate(); verr != nil {
			t.Fatalf("parsed caliper profile fails validation: %v", verr)
		}
	})
}
