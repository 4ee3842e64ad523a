package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// runMeta describes the run so later A/B runs can be matched to the same
// code and host: commit and a digest of the Go sources (which also works in
// a checkout without git metadata), toolchain, CPU, parallelism and seeds.
func runMeta(b *bench) map[string]any {
	return map[string]any{
		"workload":      b.name,
		"seed":          b.seed,
		"input_seeds":   workloads[b.name].seeds(b.seed),
		"held_out_seed": heldOutSeed,
		"seconds":       b.seconds.Seconds(),
		"commit":        commit(),
		"source_sha256": sourceDigest("."),
		"go":            runtime.Version(),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"nproc":         b.nproc,
		"cpu":           cpuModel(),
		"goos_goarch":   runtime.GOOS + "/" + runtime.GOARCH,
	}
}

// commit is the git HEAD of the working directory, or "unknown" outside a
// git checkout; source_sha256 tells apart uncommitted edits.
func commit() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// sourceDigest hashes the go.mod and .go files under root (skipping
// hidden directories), so two runs of the same sources match even without
// git metadata.
func sourceDigest(root string) string {
	var files []string
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil // unreadable entries are left out of the digest
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		h.Write([]byte(f + "\x00"))
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil))
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
