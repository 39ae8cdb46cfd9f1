package main

import (
	"bufio"
	"context"
	"crypto/sha256"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// The machine the benchmark is tuned on, a 2-vCPU virtual machine
// (Intel Xeon, 2.1 GHz) shared with other tenants, changes speed by 10
// to 50% from one minute to the next, and the GC-heavy, lock-handoff
// pipelines under test feel it about twice as strongly as plain
// arithmetic. Runs a few minutes apart then differ by more than a useful
// regression bound, however long each one is. So an untraced phase
// spends a fifth of its time on a calibration kernel: a fixed pipeline
// of the same shape as the evaluation engine (workers that hash,
// allocate and hand results through a mutex-guarded reorder buffer),
// built only from the Go runtime and standard library, so no change to
// the program under test can change its speed. It runs in a child
// process, so its heap and GC pacing do not depend on the workload's, in
// slices between workload iterations and between set-up windows. The
// end-to-end timing metrics are scaled by the kernel rate measured
// beside them over refKernelRate: they read as the time the run would
// have taken with the machine at its reference speed. The unscaled
// values are printed on standard error.

// refKernelRate is about the kernel's calls per second on the machine
// above when quiet.
const refKernelRate = 850.0

// Calibration slices: after every calibEvery of workload time, the
// kernel runs for calibShare of that time.
const (
	calibEvery = time.Second
	calibShare = 0.25
)

// warmSlice is the untimed first slice of a calibration process: its
// first kernel calls pay for process start-up and heap growth, which
// would read as a slow machine.
const warmSlice = 50 * time.Millisecond

// kernelItems is the kernel's pipeline length per call (about a
// millisecond of work).
const kernelItems = 3000

type kernelItem struct {
	h   [32]byte
	tag string
}

// kernel runs one call of the calibration pipeline and returns a
// checksum so the work cannot be optimised away.
func kernel(workers int) uint64 {
	var next atomic.Int64
	var mu sync.Mutex
	pending := make(map[int]*kernelItem)
	want := 0
	var sum uint64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf [64]byte
			for {
				i := int(next.Add(1)) - 1
				if i >= kernelItems {
					return
				}
				buf[0], buf[1] = byte(i), byte(i>>8)
				it := &kernelItem{h: sha256.Sum256(buf[:]), tag: strconv.Itoa(i) + "x"}
				mu.Lock()
				pending[i] = it
				for {
					x, ok := pending[want]
					if !ok {
						break
					}
					delete(pending, want)
					want++
					sum += uint64(x.h[0]) + uint64(len(x.tag))
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return sum
}

// serveKernel is the calibration process: for each line naming a
// duration in nanoseconds it runs the kernel at least that long and
// answers "calls busy_ns checksum". It returns when its input ends.
func serveKernel(in io.Reader, out io.Writer) error {
	sc := bufio.NewScanner(in)
	for sc.Scan() {
		d, err := strconv.ParseInt(sc.Text(), 10, 64)
		if err != nil {
			return fmt.Errorf("kernel: bad request %q", sc.Text())
		}
		calls, sum := 0, uint64(0)
		t0 := now()
		for since(t0) < time.Duration(d) {
			sum += kernel(runtime.NumCPU())
			calls++
		}
		if _, err := fmt.Fprintf(out, "%d %d %d\n", calls, int64(since(t0)), sum); err != nil {
			return err
		}
	}
	return sc.Err()
}

// calibrator drives the calibration process for one phase. A nil
// calibrator does nothing and reports speed 1, which is how traced
// phases and tests run.
type calibrator struct {
	cmd     *exec.Cmd
	in      io.WriteCloser
	out     *bufio.Reader
	calls   int
	busy    time.Duration // kernel time the process reported
	paused  time.Duration // time the workload waited on slices
	pending time.Duration
	err     error
}

// startCalibrator starts this binary as the calibration process and
// runs its warm-up slice.
func startCalibrator(ctx context.Context) (*calibrator, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.CommandContext(ctx, exe, "kernel")
	cmd.Stderr = os.Stderr
	in, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting the calibration process: %w", err)
	}
	c := &calibrator{cmd: cmd, in: in, out: bufio.NewReader(out)}
	c.slice(warmSlice)
	c.calls, c.busy, c.paused = 0, 0, 0
	return c, nil
}

// after accounts d of workload time and runs a kernel slice when due.
func (c *calibrator) after(d time.Duration) {
	if c == nil {
		return
	}
	c.pending += d
	if c.pending >= calibEvery {
		c.slice(time.Duration(float64(c.pending) * calibShare))
		c.pending = 0
	}
}

// slice has the calibration process run the kernel for at least d, and
// returns the speed it measured (1 without a calibrator); the workload
// waits meanwhile. It first finishes the workload's garbage collection:
// a collection still marking in the background would run beside the
// kernel and read as a slow machine, the more so the more the workload
// had just allocated.
func (c *calibrator) slice(d time.Duration) float64 {
	if c == nil || c.err != nil {
		return 1
	}
	t0 := now()
	defer func() { c.paused += since(t0) }()
	runtime.GC()
	var calls int
	var busy int64
	var sum uint64
	if _, c.err = fmt.Fprintf(c.in, "%d\n", int64(d)); c.err != nil {
		return 1
	}
	line, err := c.out.ReadString('\n')
	if err != nil {
		c.err = fmt.Errorf("calibration process: %w", err)
		return 1
	}
	if _, err := fmt.Sscanf(line, "%d %d %d", &calls, &busy, &sum); err != nil || calls == 0 || busy <= 0 {
		c.err = fmt.Errorf("calibration process answered %q", line)
		return 1
	}
	c.calls += calls
	c.busy += time.Duration(busy)
	return kernelSpeed(calls, time.Duration(busy))
}

// stop ends the calibration process, waits for it, and returns the
// first error the phase's calibration met.
func (c *calibrator) stop() error {
	if c == nil {
		return nil
	}
	cerr := c.in.Close()
	werr := c.cmd.Wait()
	for _, err := range []error{c.err, cerr, werr} {
		if err != nil {
			return err
		}
	}
	return nil
}

// speed is the measured kernel rate over the reference rate: below 1
// when the machine ran slow.
func (c *calibrator) speed() float64 {
	if c == nil || c.calls == 0 {
		return 1
	}
	return kernelSpeed(c.calls, c.busy)
}

// kernelSpeed is a kernel rate over the reference rate.
func kernelSpeed(calls int, busy time.Duration) float64 {
	return float64(calls) / busy.Seconds() / refKernelRate
}
