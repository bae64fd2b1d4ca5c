package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/admission"
	"repro/oracle"
	"repro/oracle/audit"
)

// buildServe compiles cmd/serve from the repository at root into dir and
// returns the binary's path.
func buildServe(root, dir string) (string, error) {
	bin := filepath.Join(dir, "serve")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/serve")
	cmd.Dir = root
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return "", fmt.Errorf("go build ./cmd/serve: %w", err)
	}
	return bin, nil
}

// server is one cmd/serve child process.
type server struct {
	cmd  *exec.Cmd
	base string
	done chan struct{} // closed when the process has exited
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	return ln.Addr().(*net.TCPAddr).Port, nil
}

// startServer spawns cmd/serve on graphDir with every flag but the graph
// directory, address and log level at its default, and waits until graph
// name is ready. It returns the time from spawn to ready.
func startServer(ctx context.Context, bin, graphDir, name string) (*server, time.Duration, error) {
	port, err := freePort()
	if err != nil {
		return nil, 0, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	cmd := exec.Command(bin, "-graph-dir", graphDir, "-addr", addr, "-log-level", "warn")
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, err
	}
	s := &server{cmd: cmd, base: "http://" + addr, done: make(chan struct{})}
	go func() {
		cmd.Wait()
		close(s.done)
	}()
	hc := &http.Client{Timeout: time.Second}
	defer hc.CloseIdleConnections()
	deadline := time.Now().Add(150 * time.Second)
	for {
		resp, err := hc.Get(s.base + "/graphs/" + name + "/ready")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, time.Since(start), nil
			}
		}
		select {
		case <-s.done:
			return nil, 0, errors.New("cmd/serve exited before the graph was ready")
		case <-ctx.Done():
			s.stop()
			return nil, 0, ctx.Err()
		case <-time.After(5 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			s.stop()
			return nil, 0, errors.New("cmd/serve: graph not ready after 150s")
		}
	}
}

// stop terminates the server and waits for it to exit.
func (s *server) stop() {
	s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.done:
	case <-time.After(5 * time.Second):
		s.cmd.Process.Kill()
		<-s.done
	}
}

// procStat reads the child's CPU time and peak RSS from /proc.
type procStat struct {
	cpu    time.Duration // utime + stime
	hwmMiB float64       // VmHWM
}

// clockTick is USER_HZ, the unit of utime and stime in /proc/<pid>/stat;
// it is 100 on every Linux architecture Go supports.
const clockTick = 10 * time.Millisecond

func (s *server) proc() (procStat, error) {
	var st procStat
	pid := s.cmd.Process.Pid
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return st, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line.
	rest := string(raw[strings.LastIndexByte(string(raw), ')')+2:])
	f := strings.Fields(rest)
	if len(f) < 13 {
		return st, errors.New("short /proc stat line")
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	stt, err2 := strconv.ParseInt(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return st, err
	}
	st.cpu = time.Duration(ut+stt) * clockTick
	status, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return st, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			if err != nil {
				return st, err
			}
			st.hwmMiB = kb / 1024
		}
	}
	return st, nil
}

// serverStats is the part of the server's /stats and /graphs/{name}/stats
// the per-layer metrics are diffed from.
type serverStats struct {
	oracle.RegistryStats
	Admission admission.Stats  `json:"admission"`
	Audit     *audit.Stats     `json:"audit"`
	Graph     oracle.GraphInfo `json:"-"`
	Engine    oracle.Stats     `json:"-"`
}

func getJSON(hc *http.Client, url string, v any) error {
	resp, err := hc.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

func scrapeStats(base, name string) (serverStats, error) {
	hc := &http.Client{Timeout: 10 * time.Second}
	defer hc.CloseIdleConnections()
	var st serverStats
	if err := getJSON(hc, base+"/stats", &st); err != nil {
		return st, err
	}
	var g struct {
		Graph  oracle.GraphInfo `json:"graph"`
		Engine oracle.Stats     `json:"engine"`
	}
	if err := getJSON(hc, base+"/graphs/"+name+"/stats", &g); err != nil {
		return st, err
	}
	st.Graph, st.Engine = g.Graph, g.Engine
	return st, nil
}
