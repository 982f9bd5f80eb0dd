package main

import (
	"context"
	"encoding/json"
	"errors"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
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

// TestWorkerListensBeforeItRegisters: a controller proxies to a worker's
// advertised address as soon as it has the registration, so by then the
// address must accept a connection. The stand-in controller dials it from
// inside the registration handler.
func TestWorkerListensBeforeItRegisters(t *testing.T) {
	// A free port: taken, read and released.
	probe, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := probe.Addr().String()
	probe.Close()

	dialed := make(chan error, 1) // the first registration's verdict; later ones are dropped
	controller := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/fleet/register" {
			var hello struct{ URL string }
			err := json.NewDecoder(r.Body).Decode(&hello)
			if err == nil {
				var u *url.URL
				if u, err = url.Parse(hello.URL); err == nil {
					var c net.Conn
					if c, err = net.DialTimeout("tcp", u.Host, 2*time.Second); err == nil {
						c.Close()
					}
				}
			}
			select {
			case dialed <- err:
			default:
			}
		}
		w.Write([]byte(`{"status":"ok"}`))
	}))
	defer controller.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	cmd := exec.CommandContext(ctx, os.Args[0], "-addr", addr, "-workers", "1",
		"-controller", controller.URL, "-worker-id", "w1", "-advertise", "http://"+addr)
	cmd.Env = append(os.Environ(), "NESTSERVED_RUN_MAIN=1")
	var out strings.Builder
	cmd.Stdout, cmd.Stderr = &out, &out
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	exited := make(chan error, 1)
	go func() { exited <- cmd.Wait() }()

	select {
	case err := <-dialed:
		if err != nil {
			t.Errorf("worker registered before its advertised address accepted a connection: %v", err)
		}
	case err := <-exited:
		t.Fatalf("nestserved exited before registering: %v\n%s", err, out.String())
	}
	cancel() // kills the daemon
	<-exited
}
