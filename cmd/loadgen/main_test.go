//go:build unix

package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"
)

// runMainEnv, set to 1 in a test binary's environment, makes TestMain
// run loadgen's main instead of the tests: the smoke test runs loadgen as
// a child process of its own binary.
const runMainEnv = "LOADGEN_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestLoadgenInProcessStream runs a short in-process load (30 requests,
// two clients, n = 100) into a temporary stream and checks what
// cmd/benchdiff reads from it: a host line, a positive latency row per
// algorithm and the request count. The process must exit 0 and leave no
// child behind.
func TestLoadgenInProcessStream(t *testing.T) {
	out := filepath.Join(t.TempDir(), "serving.json")
	cmd := exec.Command(os.Args[0], "-inprocess", "-requests", "30", "-concurrency", "2",
		"-sizes", "100", "-duration", "2m", "-out", out)
	cmd.Env = append(os.Environ(), runMainEnv+"=1")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("loadgen: %v\n%s", err, stderr.String())
		}
	case <-time.After(90 * time.Second):
		cmd.Process.Kill()
		<-done
		t.Fatalf("loadgen did not finish 30 requests in 90 s:\n%s", stderr.String())
	}
	// Wait reaped the child, so signal 0 must find no such process.
	if err := syscall.Kill(cmd.Process.Pid, 0); !errors.Is(err, syscall.ESRCH) {
		t.Fatalf("loadgen process %d still present after exit (kill 0: %v)", cmd.Process.Pid, err)
	}

	f, err := os.Open(out)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		t.Fatal("empty stream")
	}
	var host struct{ Host string }
	if err := json.Unmarshal(sc.Bytes(), &host); err != nil || host.Host == "" {
		t.Fatalf("first line %q is not a host line (%v)", sc.Text(), err)
	}
	rows := map[string]int64{}
	for sc.Scan() {
		var ev event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("line %q: %v", sc.Text(), err)
		}
		f := strings.Fields(ev.Output)
		if len(f) != 4 || f[0] != ev.Test || f[3] != "ns/op" {
			t.Fatalf("row %q is not a benchmark line", ev.Output)
		}
		v, err := strconv.ParseInt(f[2], 10, 64)
		if err != nil {
			t.Fatalf("row %q: %v", ev.Output, err)
		}
		rows[ev.Test] = v
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	for _, alg := range []string{"deterministic", "jp", "luby", "all"} {
		for _, q := range []string{"p50", "p99"} {
			name := "BenchmarkServing/mix/" + alg + "/" + q
			if v, ok := rows[name]; !ok || v <= 0 {
				t.Errorf("%s = %d (present %v), want a positive row", name, v, ok)
			}
		}
	}
	if v := rows["BenchmarkServing/mix/all/ns_per_solve"]; v <= 0 {
		t.Errorf("ns_per_solve = %d, want positive", v)
	}
	req, ok := rows["BenchmarkServingInfo/mix/requests"]
	if !ok || req <= 0 || req+rows["BenchmarkServingInfo/mix/rejected"] != 30 {
		t.Errorf("requests row %d (present %v) plus rejected %d, want 30 sent", req, ok, rows["BenchmarkServingInfo/mix/rejected"])
	}
}
