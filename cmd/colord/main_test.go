//go:build unix

package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"parcolor"
	"parcolor/internal/serve"
)

// runMainEnv, set to 1 in a test binary's environment, makes TestMain
// run colord's main instead of the tests: the smoke test starts the
// daemon as a child process of its own binary.
const runMainEnv = "COLORD_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// daemon is a colord child process.
type daemon struct {
	url  string
	proc *os.Process
	done chan struct{} // closed once the process has exited
	err  error         // the process's exit, valid after done

	mu  sync.Mutex
	log bytes.Buffer // its stderr
}

func (d *daemon) stderr() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.log.String()
}

// startDaemon starts colord on a free loopback port with the given extra
// flags and waits until it prints the address it listens on. The child is
// killed when the test ends, whatever state it is in.
func startDaemon(t *testing.T, args ...string) *daemon {
	t.Helper()
	cmd := exec.Command(os.Args[0], append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	cmd.Env = append(os.Environ(), runMainEnv+"=1")
	pipe, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	d := &daemon{proc: cmd.Process, done: make(chan struct{})}
	t.Cleanup(func() {
		d.proc.Kill()
		<-d.done
	})
	addr := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(pipe)
		for sc.Scan() {
			line := sc.Text()
			d.mu.Lock()
			d.log.WriteString(line + "\n")
			d.mu.Unlock()
			if rest, ok := strings.CutPrefix(line, "colord: listening on "); ok {
				addr <- strings.Fields(rest)[0]
			}
		}
		// Wait closes the pipe, so it runs after the last read.
		d.err = cmd.Wait()
		close(d.done)
	}()
	select {
	case a := <-addr:
		d.url = "http://" + a
	case <-d.done:
		t.Fatalf("colord exited before listening (%v):\n%s", d.err, d.stderr())
	case <-time.After(30 * time.Second):
		t.Fatalf("colord printed no listening address:\n%s", d.stderr())
	}
	return d
}

func postSolve(c *http.Client, url string, req serve.SolveRequest) (*http.Response, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	return c.Post(url+"/v1/solve", "application/json", bytes.NewReader(body))
}

// TestColordServesAndDrains starts the daemon, checks one solve's
// coloring, then sends SIGTERM while a second solve holds the only slot:
// that solve must still answer 200, and the process must exit 0 within
// its drain period.
func TestColordServesAndDrains(t *testing.T) {
	const drain = 60 * time.Second
	d := startDaemon(t, "-max-inflight", "1", "-drain", drain.String())
	client := &http.Client{Timeout: drain}

	resp, err := postSolve(client, d.url, serve.SolveRequest{
		Graph:         serve.GraphSpec{Generator: "mixed", N: 200, Seed: 1},
		IncludeColors: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	var sr serve.SolveResponse
	err = json.NewDecoder(resp.Body).Decode(&sr)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || err != nil {
		t.Fatalf("solve: status %d, decode error %v", resp.StatusCode, err)
	}
	in := parcolor.TrivialPalettes(parcolor.GenerateGraph("mixed", 200, 1))
	if err := parcolor.Verify(in, &parcolor.Coloring{Colors: sr.Colors}); err != nil {
		t.Fatalf("served coloring: %v", err)
	}

	// A deterministic solve of about a second at the default worker
	// count: long enough to be seen in flight.
	type answer struct {
		status int
		err    error
	}
	held := make(chan answer, 1)
	go func() {
		resp, err := postSolve(client, d.url, serve.SolveRequest{
			Graph:    serve.GraphSpec{Generator: "cliques", N: 600, Seed: 1},
			SeedBits: 12,
			NoCache:  true,
		})
		if err != nil {
			held <- answer{err: err}
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		held <- answer{status: resp.StatusCode}
	}()
	for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(2 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the slot-holding solve never showed in flight")
		}
		select {
		case a := <-held:
			t.Fatalf("the slot-holding solve answered (%d, %v) before it was seen in flight", a.status, a.err)
		default:
		}
		resp, err := client.Get(d.url + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		var h struct {
			Inflight int `json:"inflight"`
		}
		err = json.NewDecoder(resp.Body).Decode(&h)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if h.Inflight == 1 {
			break
		}
	}

	if err := d.proc.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if a := <-held; a.err != nil || a.status != http.StatusOK {
		t.Fatalf("in-flight solve across SIGTERM: status %d, error %v", a.status, a.err)
	}
	select {
	case <-d.done:
		if d.err != nil {
			t.Fatalf("colord exit: %v\n%s", d.err, d.stderr())
		}
	case <-time.After(drain):
		t.Fatalf("colord still running %s after SIGTERM:\n%s", drain, d.stderr())
	}
}
