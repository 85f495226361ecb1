package main

import (
	"bytes"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// transcript runs scion with args, checks its exit code, and compares its
// stdout and stderr byte for byte with testdata/<name>.golden and
// testdata/<name>.stderr.golden. The goldens hold what the stand-alone
// tool each subcommand replaced printed for the same flags. It returns
// the stdout.
func transcript(t *testing.T, name string, code int, args ...string) string {
	t.Helper()
	var stdout, stderr bytes.Buffer
	if got := run(args, &stdout, &stderr); got != code {
		t.Errorf("scion %s: exit %d, want %d", strings.Join(args, " "), got, code)
	}
	for _, stream := range []struct {
		file string
		got  []byte
	}{{name + ".golden", stdout.Bytes()}, {name + ".stderr.golden", stderr.Bytes()}} {
		if !bytes.Equal(stream.got, readGolden(t, stream.file)) {
			t.Errorf("scion %s: output differs from testdata/%s; got:\n%s", strings.Join(args, " "), stream.file, stream.got)
		}
	}
	return stdout.String()
}

// readGolden reads testdata/<file>; an absent file stands for an empty
// stream.
func readGolden(t *testing.T, file string) []byte {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("testdata", file))
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		t.Fatal(err)
	}
	return b
}

// TestSession drives the paper's workflow (§3.3, §4.1) through one
// stdout: the local address, the extended path list, a ping over the path
// the user picked from that list, and a traceroute.
func TestSession(t *testing.T) {
	var stdout, stderr, want bytes.Buffer
	for _, step := range []struct {
		golden string
		args   []string
	}{
		{"address", []string{"address"}},
		{"showpaths-extended", []string{"showpaths", "16-ffaa:0:1002", "--extended", "-m", "40"}},
		{"ping-interactive", []string{"ping", "16-ffaa:0:1002", "--interactive", "--path", "3", "-c", "5"}},
		{"traceroute", []string{"traceroute", "16-ffaa:0:1002"}},
	} {
		if code := run(step.args, &stdout, &stderr); code != 0 {
			t.Fatalf("scion %s: exit %d: %s", strings.Join(step.args, " "), code, stderr.String())
		}
		want.Write(readGolden(t, step.golden+".golden"))
	}
	if stderr.Len() != 0 {
		t.Errorf("stderr: %s", stderr.String())
	}
	if !bytes.Equal(stdout.Bytes(), want.Bytes()) {
		t.Errorf("session transcript differs from the goldens:\n%s", stdout.String())
	}
}

func TestUsage(t *testing.T) {
	transcript(t, "usage", 2)
	var stdout, stderr bytes.Buffer
	if code := run([]string{"pingg", "1"}, &stdout, &stderr); code != 2 ||
		stderr.String() != "scion: unknown command \"pingg\"\n"+usage {
		t.Errorf("unknown command: exit %d, stderr %q", code, stderr.String())
	}
}

func TestScionAddr(t *testing.T) {
	transcript(t, "address", 0, "address")
}

func TestScionAddrBadFlag(t *testing.T) {
	transcript(t, "address-bad-flag", 2, "address", "-zz")
}

func TestShowPathsBasic(t *testing.T) {
	// The paper's spelling, and the flags-first order of the old tool.
	transcript(t, "showpaths-extended", 0, "showpaths", "16-ffaa:0:1002", "--extended", "-m", "40")
	transcript(t, "showpaths-extended", 0, "showpaths", "-m", "40", "-extended", "16-ffaa:0:1002")
}

func TestShowPathsDefaultLimit(t *testing.T) {
	out := transcript(t, "showpaths-default", 0, "showpaths", "1")
	if n := strings.Count(out, "\n") - 1; n > 10 {
		t.Errorf("%d paths despite the default limit of 10", n)
	}
}

func TestShowPathsACL(t *testing.T) {
	out := transcript(t, "showpaths-acl", 0, "showpaths", "16-ffaa:0:1002", "-m", "40",
		"--acl", "- 16-ffaa:0:1004#0, - 16-ffaa:0:1007#0")
	if strings.Contains(out, "16-ffaa:0:1004") || strings.Contains(out, "16-ffaa:0:1007") {
		t.Errorf("ACL-denied transit in output:\n%s", out)
	}
	transcript(t, "showpaths-bad-acl", 1, "showpaths", "1", "--acl", "garbage")
}

func TestShowPathsErrors(t *testing.T) {
	transcript(t, "showpaths-unknown-as", 1, "showpaths", "16-ffaa:0:9999")
	transcript(t, "showpaths-malformed", 1, "showpaths", "zz")
	// The old tool's usage listed -d; the destination is positional now.
	transcript(t, "showpaths-misspelled-flag", 2, "showpaths", "16-ffaa:0:1002", "--extnded")
	transcript(t, "showpaths-negative-limit", 1, "showpaths", "1", "-m", "-3")
	var stdout, stderr bytes.Buffer
	if code := run([]string{"showpaths", "--extended"}, &stdout, &stderr); code != 2 ||
		stderr.String() != "showpaths: exactly one destination required\n" {
		t.Errorf("missing destination: exit %d, stderr %q", code, stderr.String())
	}
}

func TestPingDefaultPath(t *testing.T) {
	transcript(t, "ping-default", 0, "ping", "16-ffaa:0:1002", "-c", "5", "--interval", "10ms")
	transcript(t, "ping-default", 0, "ping", "-c", "5", "16-ffaa:0:1002", "--interval", "10ms")
}

func TestPingInteractive(t *testing.T) {
	transcript(t, "ping-interactive-server", 0, "ping", "1", "--interactive", "--path", "2", "-c", "3", "--interval", "5ms")
}

func TestPingWithSequence(t *testing.T) {
	transcript(t, "ping-sequence", 0, "ping", "16-ffaa:0:1002", "-c", "2", "--interval", "5ms", "--sequence",
		"17-ffaa:1:1#1 17-ffaa:0:1107#3,1 17-ffaa:0:1102#2,1 17-ffaa:0:1101#5,2 16-ffaa:0:1001#1,5 16-ffaa:0:1002#1")
}

func TestPingWithGlobSequence(t *testing.T) {
	// Partial pin: any path crossing ISD 19 on the way to Ireland.
	out := transcript(t, "ping-glob-sequence", 0, "ping", "16-ffaa:0:1002", "-c", "2", "--interval", "5ms",
		"--sequence", "17-ffaa:1:1 * 19-0 * 16-ffaa:0:1002")
	if !strings.Contains(out, "19-ffaa:0:1301") {
		t.Errorf("resolved path does not cross ISD 19:\n%s", out)
	}
}

func TestPingErrors(t *testing.T) {
	transcript(t, "ping-no-destination", 2, "ping")
	transcript(t, "ping-two-destinations", 2, "ping", "a", "b")
	transcript(t, "ping-bad-sequence", 1, "ping", "1", "--sequence", "%%")
	transcript(t, "ping-unresolvable-sequence", 1, "ping", "1", "--sequence", "1-0#0")
	transcript(t, "ping-path-out-of-range", 1, "ping", "16-ffaa:0:1002", "--interactive", "--path", "99")
	transcript(t, "ping-malformed", 1, "ping", "zz")
}

func TestTraceroute(t *testing.T) {
	transcript(t, "traceroute", 0, "traceroute", "16-ffaa:0:1002")
	transcript(t, "traceroute-probes", 0, "traceroute", "16-ffaa:0:1002", "--probes", "2")
}

func TestTracerouteInteractive(t *testing.T) {
	transcript(t, "traceroute-interactive", 0, "traceroute", "1", "--interactive", "--path", "1", "--probes", "1")
}

func TestTracerouteErrors(t *testing.T) {
	transcript(t, "traceroute-no-destination", 2, "traceroute")
	transcript(t, "traceroute-two-destinations", 2, "traceroute", "a", "b")
	transcript(t, "traceroute-malformed", 1, "traceroute", "zz")
	transcript(t, "traceroute-bad-sequence", 1, "traceroute", "1", "--sequence", "%%")
	transcript(t, "traceroute-unresolvable-sequence", 1, "traceroute", "1", "--sequence", "1-0#0")
	transcript(t, "traceroute-path-out-of-range", 1, "traceroute", "1", "--interactive", "--path", "999")
}
