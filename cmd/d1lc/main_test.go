package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// runMainEnv, set to 1 in a test binary's environment, makes TestMain
// run d1lc's main instead of the tests, so a test can run the command as
// a child process of its own binary and read its exit status.
const runMainEnv = "D1LC_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestFlagsRejectedBeforeGenerating runs d1lc on bad input and expects
// exit status 2 with a message naming the valid values, where the command
// used to panic (an unknown -graph, a negative -n) or to solve with
// trivial palettes (an unknown -palette). A panic exits with status
// 2 as well, so its stack trace must not appear. The last case is a valid
// run.
func TestFlagsRejectedBeforeGenerating(t *testing.T) {
	cases := []struct {
		args   []string
		code   int
		stderr string
	}{
		{[]string{"-graph", "bogus"}, 2, `unknown -graph "bogus" (valid: gnp-sparse, gnp-dense, regular,`},
		{[]string{"-n", "-5"}, 2, "-n must be at least 0, got -5"},
		{[]string{"-graph", "gnp-dense", "-n", "-1"}, 2, "-n must be at least 0"},
		{[]string{"-graph", "regular", "-n", "-1"}, 2, "-n must be at least 0"},
		{[]string{"-palette", "bogus"}, 2, `unknown -palette "bogus" (valid: trivial, delta1, random)`},
		{[]string{"-alg", "bogus"}, 2, `unknown -alg "bogus" (valid: deterministic, randomized, greedy, lowdeg, jp, luby)`},
		{[]string{"-graph", "cycle", "-n", "5", "-palette", "delta1"}, 0, ""},
	}
	for _, c := range cases {
		cmd := exec.Command(os.Args[0], c.args...)
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
			t.Errorf("d1lc %s: exit %d, stderr %q; want exit %d, stderr containing %q", strings.Join(c.args, " "), code, got, c.code, c.stderr)
		}
	}
}
