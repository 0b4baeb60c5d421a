package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"

	"github.com/p2prepro/locaware/internal/core"
)

func g(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

func shortHash(data string) string {
	sum := sha256.Sum256([]byte(data))
	return hex.EncodeToString(sum[:8])
}

// runDigest digests the simulated statistics of direct runs: per protocol,
// the success rate, msgs/query, download RTT, events, control bits and
// cache occupancy, at full float precision.
func runDigest(w *workload, runs []*core.RunResult) (string, []string) {
	lines := make([]string, len(runs))
	for i, r := range runs {
		label := w.jobs[i].label
		if r == nil || r.Err != nil {
			lines[i] = label + " failed"
			continue
		}
		c := r.Collector
		lines[i] = fmt.Sprintf("%s success=%s msgs=%s rtt_ms=%s events=%d control_bits=%d cache=%d/%d",
			label, g(c.SuccessRate()), g(c.AvgMessagesPerQuery()), g(c.AvgDownloadRTT()),
			r.Events, r.ControlBits, r.CacheFilenames, r.CacheProviderEntries)
	}
	return shortHash(strings.Join(lines, "\n")), lines
}

// csvDigest digests a campaign's cells.csv.
func csvDigest(csv string) (string, []string) {
	sum := fmt.Sprintf("%x", sha256.Sum256([]byte(csv)))
	rows := strings.Count(csv, "\n") - 1
	return sum[:16], []string{fmt.Sprintf("cells.csv rows=%d sha256=%s", rows, sum)}
}

// checkDigests reports whether every digest of one seed's runs is the same.
func checkDigests(digests []string) error {
	for _, d := range digests {
		if d != digests[0] {
			return fmt.Errorf("digests differ across runs of one seed: %v", digests)
		}
	}
	return nil
}

// digestStore keeps the first digest seen for each (workload, size, seed,
// source) under dir, so every later run of that seed on the same source
// must print the same one.
func digestStore(dir, key, digest string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, key+".digest")
	prev, err := os.ReadFile(path)
	if err == nil {
		return checkDigests([]string{strings.TrimSpace(string(prev)), digest})
	}
	if !os.IsNotExist(err) {
		return err
	}
	tmp := fmt.Sprintf("%s.%d.tmp", path, os.Getpid())
	if err := os.WriteFile(tmp, []byte(digest+"\n"), 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// host describes where a report was measured.
type host struct {
	cpu, goVersion, commit, source string
	nproc, gomaxprocs              int
}

func (h host) String() string {
	return fmt.Sprintf("cpu=%q nproc=%d gomaxprocs=%d go=%s commit=%s source=%s",
		h.cpu, h.nproc, h.gomaxprocs, h.goVersion, h.commit, h.source)
}

func hostInfo(root string) host {
	return host{
		cpu:        cpuModel(),
		nproc:      runtime.NumCPU(),
		gomaxprocs: runtime.GOMAXPROCS(0),
		goVersion:  runtime.Version(),
		commit:     gitCommit(root),
		source:     sourceHash(root),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitCommit reads HEAD from root/.git without running git; "unknown" when
// root is not a git checkout.
func gitCommit(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if id, err := os.ReadFile(filepath.Join(root, ".git", ref)); err == nil {
		return strings.TrimSpace(string(id))
	}
	packed, err := os.ReadFile(filepath.Join(root, ".git", "packed-refs"))
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if id, name, ok := strings.Cut(line, " "); ok && name == ref {
			return id
		}
	}
	return "unknown"
}

// sourceHash digests every non-test Go file and go.mod under root, skipping
// dot directories, so a report identifies the code it measured even in a
// checkout without git metadata.
func sourceHash(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		name := d.Name()
		if name != "go.mod" && (!strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go")) {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		rel, _ := filepath.Rel(root, path)
		fmt.Fprintf(h, "%s\n", rel)
		_, err = io.Copy(h, f)
		return err
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

// peakRSSMB reads the process's peak resident set (VmHWM).
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// metric is one reported number.
type metric struct {
	name  string
	value float64
	unit  string
}
