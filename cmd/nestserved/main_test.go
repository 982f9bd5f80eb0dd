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

// TestMain re-executes the test binary as nestserved itself when asked to,
// so a test can observe the daemon's exit status and log output.
func TestMain(m *testing.M) {
	if os.Getenv("NESTSERVED_RUN_MAIN") == "1" {
		main()
		return
	}
	os.Exit(m.Run())
}

func TestDataDirsAreCreated(t *testing.T) {
	for _, flagName := range []string{"checkpoint-dir", "ledger-dir"} {
		dir := filepath.Join(t.TempDir(), "fresh", "host", flagName)
		if err := ensureDir(flagName, dir); err != nil {
			t.Fatal(err)
		}
		if st, err := os.Stat(dir); err != nil || !st.IsDir() {
			t.Fatalf("-%s not created: %v", flagName, err)
		}
	}
	if err := ensureDir("checkpoint-dir", ""); err != nil {
		t.Fatalf("unset flag: %v", err)
	}
}

func TestUnusableDataDirExitsNonZeroNamingThePath(t *testing.T) {
	file := filepath.Join(t.TempDir(), "not-a-dir")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	// Bounded: a daemon that accepted the directory would serve forever.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for _, flagName := range []string{"checkpoint-dir", "ledger-dir"} {
		dir := filepath.Join(file, flagName)
		cmd := exec.CommandContext(ctx, os.Args[0], "-addr", "127.0.0.1:0", "-"+flagName, dir)
		cmd.Env = append(os.Environ(), "NESTSERVED_RUN_MAIN=1")
		out, err := cmd.CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() == 0 {
			t.Fatalf("nestserved -%s %s: err %v, want a non-zero exit; output:\n%s", flagName, dir, err, out)
		}
		if !strings.Contains(string(out), "-"+flagName+" "+dir) {
			t.Fatalf("exit message does not name the flag and path:\n%s", out)
		}
	}
}
