package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

// printEnv prints the environment block every result carries: the
// machine, the build, the seed and the sizes of what was measured.
func printEnv(w workload, seed int64, seconds int, traced bool, sys system) {
	env := map[string]any{
		"workload":           w.name,
		"seed":               seed,
		"seconds":            seconds,
		"traced":             traced,
		"nproc":              runtime.NumCPU(),
		"gomaxprocs":         runtime.GOMAXPROCS(0),
		"go_version":         runtime.Version(),
		"git_commit":         gitCommit(),
		"source_sha256":      sourceDigest(),
		"clients":            w.clients,
		"tables":             sys.tables(),
		"pool_pages":         w.poolPages,
		"result_cache_bytes": w.resBytes,
		"setup_reps":         setupReps,
	}
	b, _ := json.Marshal(env)
	fmt.Printf("env %s\n", b)
}

// gitCommit reads HEAD from .git without running git; a checkout that
// is not a repository reports "none".
func gitCommit() string {
	head, err := os.ReadFile(filepath.Join(".git", "HEAD"))
	if err != nil {
		return "none"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head))
	}
	if b, err := os.ReadFile(filepath.Join(".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	packed, _ := os.ReadFile(filepath.Join(".git", "packed-refs"))
	for _, line := range strings.Split(string(packed), "\n") {
		if sha, name, ok := strings.Cut(line, " "); ok && name == ref {
			return sha
		}
	}
	return "unknown"
}

// sourceDigest hashes the engine's Go sources and go.mod (everything
// but this benchmark and hidden directories), so results from a
// checkout without git history still name the code they measured.
func sourceDigest() string {
	h := sha256.New()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || path == "perfbench") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && path != "go.mod" {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		fmt.Fprintf(h, "%s\x00", path)
		_, err = io.Copy(h, f)
		return err
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))
}
