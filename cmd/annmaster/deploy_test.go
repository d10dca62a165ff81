package main

import (
	"bytes"
	"context"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/bruteforce"
	"repro/internal/dataset"
	"repro/internal/vec"
)

// TestTCPDeploymentSmoke runs the real binaries on loopback: a master
// and two workers that are given only their rank, the addresses and a
// thread count. The master's -replication, -seed and -checkpoint must
// reach the workers through the join; a second run with -resume in place
// of -data and -checkpoint must load what the first one saved and answer
// the same.
func TestTCPDeploymentSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the binaries and runs three processes twice")
	}
	dir := t.TempDir()
	// go test puts its own toolchain first on the PATH of subprocesses.
	build := exec.Command("go", "build", "-o", dir+string(filepath.Separator), "repro/cmd/annmaster", "repro/cmd/annworker")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}

	ds, err := dataset.Named("sift", 3000, 1)
	if err != nil {
		t.Fatal(err)
	}
	qs := dataset.PerturbedQueries(ds, 100, 0.05, 2)
	data, queries, gt := filepath.Join(dir, "sift.fvecs"), filepath.Join(dir, "sift_query.fvecs"), filepath.Join(dir, "sift_gt.ivecs")
	for path, d := range map[string]*vec.Dataset{data: ds, queries: qs} {
		if err := dataset.SaveFvecsFile(path, d); err != nil {
			t.Fatal(err)
		}
	}
	gf, err := os.Create(gt)
	if err != nil {
		t.Fatal(err)
	}
	if err := dataset.WriteIvecs(gf, bruteforce.GroundTruth(ds, qs, 10, vec.L2)); err != nil {
		t.Fatal(err)
	}
	if err := gf.Close(); err != nil {
		t.Fatal(err)
	}

	ckpt := filepath.Join(dir, "ckpt")
	common := []string{"-k", "10", "-gt", gt, "-queries", queries, "-replication", "2", "-seed", "5"}
	built := runDeployment(t, dir, append(common, "-data", data, "-checkpoint", ckpt))
	if _, err := os.Stat(filepath.Join(ckpt, "tree.vp")); err != nil {
		t.Fatalf("checkpoint not written: %v", err)
	}
	resumed := runDeployment(t, dir, append(common, "-resume", ckpt))
	t.Logf("built: %s, resumed: %s", built, resumed)
	if built != resumed {
		t.Errorf("resumed run printed %q, built run %q", resumed, built)
	}
	recall, err := strconv.ParseFloat(strings.TrimPrefix(built, "recall@10 = "), 64)
	if err != nil || recall < 0.9 {
		t.Errorf("%q: want recall@10 of 0.9 or above", built)
	}
}

var recallLine = regexp.MustCompile(`recall@10 = [0-9.]+`)

// runDeployment starts two annworkers and an annmaster with masterArgs
// on fresh loopback ports, requires all three to exit 0 within 90 s and
// every worker to shut down cleanly, and returns the master's recall
// line.
func runDeployment(t *testing.T, bin string, masterArgs []string) string {
	t.Helper()
	addrs := strings.Join(freeAddrs(t, 3), ",")
	ctx, cancel := context.WithTimeout(context.Background(), 90*time.Second)
	defer cancel()
	type proc struct {
		name string
		cmd  *exec.Cmd
		out  bytes.Buffer
	}
	var procs []*proc
	start := func(name string, args ...string) {
		p := &proc{name: name, cmd: exec.CommandContext(ctx, filepath.Join(bin, name), args...)}
		p.cmd.Stdout, p.cmd.Stderr = &p.out, &p.out
		if err := p.cmd.Start(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		procs = append(procs, p)
	}
	for r := 1; r <= 2; r++ {
		start("annworker", "-rank", strconv.Itoa(r), "-addrs", addrs, "-threads", "1")
	}
	start("annmaster", append([]string{"-addrs", addrs}, masterArgs...)...)
	for _, p := range procs {
		if err := p.cmd.Wait(); err != nil {
			t.Errorf("%s %v: %v (deadline hit: %v)\n%s", p.name, p.cmd.Args[1:], err, ctx.Err() != nil, p.out.String())
		}
	}
	if t.Failed() {
		t.FailNow()
	}
	for _, p := range procs[:2] {
		if !strings.Contains(p.out.String(), "shut down cleanly") {
			t.Errorf("%s did not shut down cleanly:\n%s", p.name, p.out.String())
		}
	}
	line := recallLine.FindString(procs[2].out.String())
	if line == "" {
		t.Fatalf("no recall line from annmaster:\n%s", procs[2].out.String())
	}
	return line
}

// freeAddrs returns n loopback addresses whose ports were free a moment
// ago.
func freeAddrs(t *testing.T, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer ln.Close()
		addrs[i] = ln.Addr().String()
	}
	return addrs
}
