package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// runMainEnv, set to 1 in a test binary's environment, makes TestMain
// run scalebench's main instead of the tests, so a test can run the
// command as a child process of its own binary and read its exit status.
const runMainEnv = "SCALEBENCH_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestGraphsRejectedBeforeCreatingOut runs scalebench with an unknown
// name in -graphs and expects exit status 2 with a message naming the
// valid values and no -out file: the command used to create the stream
// and then panic. A panic exits with status 2 as well, so its stack trace
// must not appear. The last case is a valid sweep that writes the stream.
func TestGraphsRejectedBeforeCreatingOut(t *testing.T) {
	cases := []struct {
		args   []string
		code   int
		stderr string
		out    bool
	}{
		{[]string{"-graphs", "gnp-sparse,bogus"}, 2, `unknown graph "bogus" in -graphs (valid: gnp-sparse, gnp-dense, regular,`, false},
		{[]string{"-graphs", ""}, 2, `unknown graph "" in -graphs`, false},
		{[]string{"-graphs", "cycle, complete", "-sizes", "20", "-algs", "greedy"}, 0, "", true},
	}
	for i, c := range cases {
		out := filepath.Join(t.TempDir(), "stream.json")
		cmd := exec.Command(os.Args[0], append(c.args, "-out", out)...)
		cmd.Env = append(os.Environ(), runMainEnv+"=1")
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		err := cmd.Run()
		code := 0
		var exit *exec.ExitError
		if errors.As(err, &exit) {
			code = exit.ExitCode()
		} else if err != nil {
			t.Fatal(err)
		}
		got := stderr.String()
		if code != c.code || !strings.Contains(got, c.stderr) || strings.Contains(got, "panic") {
			t.Errorf("case %d %q: exit %d, stderr %q; want exit %d, stderr containing %q", i, c.args, code, got, c.code, c.stderr)
		}
		if _, err := os.Stat(out); (err == nil) != c.out {
			t.Errorf("case %d %q: -out exists = %v, want %v", i, c.args, err == nil, c.out)
		}
	}
}
