package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// stamp identifies the host and the code a result was measured on.
type stamp struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	OSArch     string `json:"os_arch"`
	// Commit is the git commit run.py found, "unknown" outside a git
	// checkout; Source is a digest of the program's Go sources, which
	// identifies the code either way.
	Commit string `json:"commit"`
	Source string `json:"source_sha256"`
	Time   string `json:"time"`
}

func stampNow(src string) stamp {
	commit := os.Getenv("LBEBENCH_COMMIT")
	if commit == "" {
		commit = "unknown"
	}
	return stamp{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPUModel:   cpuModel(),
		OSArch:     runtime.GOOS + "/" + runtime.GOARCH,
		Commit:     commit,
		Source:     sourceDigest(src),
		Time:       time.Now().UTC().Format(time.RFC3339),
	}
}

func (s stamp) line() string {
	return fmt.Sprintf("nproc %d, GOMAXPROCS %d, %s, %s, commit %s, source %.12s",
		s.NProc, s.GOMAXPROCS, s.GoVersion, s.CPUModel, s.Commit, s.Source)
}

// hostJiffies reads the host's total and stolen CPU time from /proc/stat;
// the share stolen during a run says how much the neighbours took.
func hostJiffies() (total, steal float64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	for i, v := range f[1:] {
		x, _ := strconv.ParseFloat(v, 64)
		total += x
		if i == 7 {
			steal = x
		}
	}
	return total, steal
}

// cpuModel reads the first model name from /proc/cpuinfo.
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

// sourceDigest hashes go.mod and every .go file under root, outside
// vendor, the benchmark's own directory and hidden or build directories,
// in path order.
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != root && (name == "vendor" || name == "perfbench" || strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if name != "go.mod" && !strings.HasSuffix(name, ".go") {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		fmt.Fprintf(h, "%s\x00%d\x00", filepath.ToSlash(rel), len(data))
		h.Write(data)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))
}
