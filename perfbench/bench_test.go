package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// manifest is the part of BENCHMARK.json the self-test checks the output
// against.
type manifest struct {
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	Workloads []struct{ Name string }       `json:"workloads"`
}

func loadManifest(t *testing.T) manifest {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	return m
}

type summary struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

// runToy runs the benchmark at toy sizes and returns its report and parsed
// summary line.
func runToy(t *testing.T, work, workload string, seed int64, trace int) (string, summary) {
	t.Helper()
	o := options{workload: workload, seed: seed, seconds: 0.2, trace: trace == 1,
		sizes: toySizes, root: "..", work: work}
	res, err := execute(o)
	if err != nil {
		t.Fatalf("%s trace=%d: %v", workload, trace, err)
	}
	var out bytes.Buffer
	if err := writeReport(&out, o, res); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var s summary
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &s); err != nil {
		t.Fatalf("%s trace=%d: last line is not the summary: %v", workload, trace, err)
	}
	return out.String(), s
}

// digestOf extracts the digest a run printed.
func digestOf(t *testing.T, out string) string {
	t.Helper()
	for _, line := range strings.Split(out, "\n") {
		if rest, ok := strings.CutPrefix(line, "# digest "); ok {
			return strings.Fields(rest)[0]
		}
	}
	t.Fatal("no digest line")
	return ""
}

// TestToyWorkloads runs every workload untraced and traced and checks that
// the output check passes and every metric BENCHMARK.json names is printed,
// in the summary and as a text line, with its unit.
func TestToyWorkloads(t *testing.T) {
	m := loadManifest(t)
	if len(m.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(m.Workloads), len(workloadNames))
	}
	work := t.TempDir()
	for _, wl := range m.Workloads {
		for trace, want := range [][]struct{ Name, Unit string }{m.EndToEnd, m.PerLayer} {
			out, s := runToy(t, work, wl.Name, 1, trace)
			if !s.Correct || s.Failed != 0 || s.Attempted < 1 {
				t.Errorf("%s trace=%d: correct=%v attempted=%d failed=%d\n%s", wl.Name, trace, s.Correct, s.Attempted, s.Failed, out)
			}
			if len(s.Metrics) != len(want) {
				t.Errorf("%s trace=%d: %d metrics, BENCHMARK.json names %d", wl.Name, trace, len(s.Metrics), len(want))
			}
			for _, w := range want {
				got, ok := s.Metrics[w.Name]
				if !ok || got.Unit != w.Unit {
					t.Errorf("%s trace=%d: metric %s = %+v, want unit %s", wl.Name, trace, w.Name, got, w.Unit)
				}
				if !strings.Contains(out, "\n"+w.Name+" ") {
					t.Errorf("%s trace=%d: no text line for %s", wl.Name, trace, w.Name)
				}
			}
			if !strings.Contains(out, "\nerror_rate ") {
				t.Errorf("%s trace=%d: no error_rate line", wl.Name, trace)
			}
			if !strings.Contains(out, "# host cpu=") {
				t.Errorf("%s trace=%d: no host stamp", wl.Name, trace)
			}
		}
	}
}

// TestDigestCheck checks that runs of one seed agree, traced or not, and
// that the digest check fails once runs of two seeds are mixed into one
// set, both within a run's batch set and in the digest store.
func TestDigestCheck(t *testing.T) {
	work := t.TempDir()
	for _, wl := range workloadNames {
		a, _ := runToy(t, work, wl, 1, 0)
		b, _ := runToy(t, work, wl, 1, 1)
		c, _ := runToy(t, work, wl, 2, 0)
		da, db, dc := digestOf(t, a), digestOf(t, b), digestOf(t, c)
		if err := checkDigests([]string{da, db}); err != nil {
			t.Errorf("%s: seed 1 untraced and traced digests differ: %v", wl, err)
		}
		if err := checkDigests([]string{da, dc, da}); err == nil {
			t.Errorf("%s: mixing seeds 1 and 2 passed the digest check (%s vs %s)", wl, da, dc)
		}
		store := t.TempDir()
		if err := digestStore(store, wl, da); err != nil {
			t.Fatal(err)
		}
		if err := digestStore(store, wl, dc); err == nil {
			t.Errorf("%s: digest store accepted seed 2's digest under seed 1's key", wl)
		}
	}
}
