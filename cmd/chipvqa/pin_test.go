package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// captureStdout runs fn with os.Stdout redirected to a temporary file
// and returns what fn printed along with fn's error.
func captureStdout(t *testing.T, fn func() error) ([]byte, error) {
	t.Helper()
	f, err := os.CreateTemp(t.TempDir(), "stdout")
	if err != nil {
		t.Fatal(err)
	}
	orig := os.Stdout
	os.Stdout = f
	runErr := fn()
	os.Stdout = orig
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		t.Fatal(err)
	}
	out, err := io.ReadAll(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		t.Fatal(err)
	}
	return out, runErr
}

// TestCLIOutputsPinned pins the SHA-256 of the whole stdout of every
// run command, so a change to how a command builds or dispatches its
// run cannot change a byte of what it prints. The other command tests
// only check success or failure.
func TestCLIOutputsPinned(t *testing.T) {
	pack := filepath.Join(t.TempDir(), "pin.cvqb")
	if _, err := captureStdout(t, func() error {
		return cmdPack(context.Background(), []string{"-seed", "cli-pin", "-n", "3", "-o", pack})
	}); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name   string
		cmd    func(context.Context, []string) error
		args   []string
		digest string
	}{
		{"eval", cmdEval, nil,
			"df4dbf023ba7dcddc62e08552ba79128dfeae4184b3791cd7012df7523146c6e"},
		{"eval -gap", cmdEval, []string{"-gap"},
			"dae76e2c5bf96157a863373cbe2eb3a21bd156892ca823bd23e84ee93ea77e58"},
		{"challenge", cmdChallenge, nil,
			"499b74f57e08cc9dba169a1a417eac23a97ff0cc55051c3d9fd11c18ef1bacd2"},
		{"resolution", cmdResolution, nil,
			"68a8b75fb032f88c61410001c31251f286188eae41f47a288e21c1fee6b9df00"},
		{"resolution -category all", cmdResolution, []string{"-category", "all"},
			"fabd4bac9fac4d1c84b6e0e85ce11fc2f2b94c5052c36cc1a0a867a84e24f7e5"},
		{"items", cmdItems, nil,
			"5bc85c0950f0b3c4f71b4a5504938867e09c5de5062accf2f7d5b9db5ad28de8"},
		{"items -json -challenge", cmdItems, []string{"-json", "-challenge"},
			"ba8a8ed855bc3deb293c3b46e5c0390f8261ccb8c17540735d771b44a50ac5a4"},
		{"extended -eval", cmdExtended, []string{"-seed", "cli-pin", "-n", "3", "-eval"},
			"a1672730e74f6931fa0654d6a05c62e0305b335781db5907531947d8fa35b2cf"},
		{"extended -eval -stream", cmdExtended, []string{"-seed", "cli-pin", "-n", "3", "-eval", "-stream", "-shard", "4"},
			"3f67c410387306cebccee6aa30844594f0523e79a0db51cbe22ea9548641a34b"},
		{"extended -packed -eval -stream", cmdExtended, []string{"-packed", pack, "-eval", "-stream", "-shard", "4"},
			"3f67c410387306cebccee6aa30844594f0523e79a0db51cbe22ea9548641a34b"},
		{"adaptive", cmdAdaptive, []string{"-seed", "cli-pin", "-n", "4"},
			"f96ee261cfb69aaae1894d61b2259930593fa8e7c0ad05a7ef74e98101ea020c"},
		{"agent", cmdAgent, nil,
			"405b366c51e10ab056fd1c4829b75bd9e45358eec9773fa484080f0a812824b4"},
		{"compare", cmdCompare, nil,
			"111a07d46a3c901860cce6bc6678264dfb5d1e138706a4a46ad2651e3a79d89b"},
		{"compare -a GPT4o -b GPT4o", cmdCompare, []string{"-a", "GPT4o", "-b", "GPT4o"},
			"d3107ec558a5f673275dc9e5d6a524ced0ad15f9e8a4388b691bf59d0feff131"},
	}
	for _, c := range cases {
		out, err := captureStdout(t, func() error { return c.cmd(context.Background(), c.args) })
		if err != nil {
			t.Errorf("%s: %v", c.name, err)
			continue
		}
		sum := sha256.Sum256(out)
		if got := hex.EncodeToString(sum[:]); got != c.digest {
			t.Errorf("%s: stdout (%d bytes) digest %s, want %s", c.name, len(out), got, c.digest)
		}
	}
}
