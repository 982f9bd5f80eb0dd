package main

import (
	"context"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestMain re-executes the test binary as nestctl itself when asked to, so
// a test can observe the daemon's exit status and log output.
func TestMain(m *testing.M) {
	if os.Getenv("NESTCTL_RUN_MAIN") == "1" {
		main()
		return
	}
	os.Exit(m.Run())
}

func TestStateDirIsCreated(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "fresh", "host", "wal")
	if err := ensureDir("state-dir", dir); err != nil {
		t.Fatal(err)
	}
	if st, err := os.Stat(dir); err != nil || !st.IsDir() {
		t.Fatalf("state dir not created: %v", err)
	}
	if err := ensureDir("state-dir", ""); err != nil {
		t.Fatalf("unset flag: %v", err)
	}
}

func TestUnusableStateDirExitsNonZeroNamingThePath(t *testing.T) {
	file := filepath.Join(t.TempDir(), "not-a-dir")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(file, "wal")
	// Bounded: a daemon that accepted the directory would serve forever.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	cmd := exec.CommandContext(ctx, os.Args[0], "-addr", "127.0.0.1:0", "-state-dir", dir)
	cmd.Env = append(os.Environ(), "NESTCTL_RUN_MAIN=1")
	out, err := cmd.CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() == 0 {
		t.Fatalf("nestctl -state-dir %s: err %v, want a non-zero exit; output:\n%s", dir, err, out)
	}
	if !strings.Contains(string(out), "-state-dir "+dir) {
		t.Fatalf("exit message does not name the flag and path:\n%s", out)
	}
}
