package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"syscall"
)

// fingerprint says where and on what a run was measured.
type fingerprint struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"` // "unknown" outside a git checkout
	Dirty      bool   `json:"dirty"`
	Kernel     string `json:"kernel"`
	DataDirFS  string `json:"datadir_fs"`
	Links      string `json:"links"`
}

// runRecord is one run in a result file.
type runRecord struct {
	Workload    string                 `json:"workload"`
	Seed        int64                  `json:"seed"`
	Seconds     float64                `json:"seconds"`
	Trace       bool                   `json:"trace"`
	Params      map[string]any         `json:"params"`
	Fingerprint fingerprint            `json:"fingerprint"`
	Correct     bool                   `json:"correct"`
	Attempted   int                    `json:"attempted"`
	Failed      int                    `json:"failed"`
	Checks      []string               `json:"checks,omitempty"`
	Metrics     map[string]metricValue `json:"metrics"`
	Issue       map[string]metricValue `json:"issue_metrics,omitempty"` // ISSUE 12's names; -compare judges them on untraced runs
	Extra       []extraValue           `json:"extra,omitempty"`
}

// resultFile is what -out appends to and -compare reads: the runs of one
// commit on one machine.
type resultFile struct {
	Runs []runRecord `json:"runs"`
}

func readResults(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

func appendRecord(path string, rec runRecord) error {
	f, err := readResults(path)
	if errors.Is(err, fs.ErrNotExist) {
		f = &resultFile{}
	} else if err != nil {
		return err
	}
	f.Runs = append(f.Runs, rec)
	data, err := json.MarshalIndent(f, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

func takeFingerprint(cfg runConfig) fingerprint {
	fp := fingerprint{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     "unknown",
		Kernel:     kernelRelease(),
		DataDirFS:  fsType(cfg.datadir),
		Links:      "loopback / in-process links, load generated in-process",
	}
	// Only a git checkout has a commit; the benchmark driver's copy is
	// not one, and no process is started there.
	if _, err := os.Stat(".git"); err == nil {
		if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
			fp.Commit = strings.TrimSpace(string(out))
			st, err := exec.Command("git", "status", "--porcelain").Output()
			fp.Dirty = err != nil || len(st) > 0
		}
	}
	return fp
}

func kernelRelease() string {
	var u syscall.Utsname
	if syscall.Uname(&u) != nil {
		return "unknown"
	}
	var b strings.Builder
	for _, c := range u.Release {
		if c == 0 {
			break
		}
		b.WriteByte(byte(c))
	}
	return b.String()
}

// fsType names the filesystem the WAL's fsync lands on.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if syscall.Statfs(dir, &st) != nil {
		return "unknown"
	}
	known := map[int64]string{
		0xEF53: "ext4", 0x01021994: "tmpfs", 0x794C7630: "overlayfs",
		0x58465342: "xfs", 0x9123683E: "btrfs", 0x6969: "nfs", 0x2FC12FC1: "zfs",
	}
	if name, ok := known[int64(st.Type)]; ok {
		return name
	}
	return fmt.Sprintf("0x%x", st.Type)
}

// peakRSSMB is the process's high-water resident set.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
