package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"sync"
	"time"

	"gridseg"
	"gridseg/internal/fabric"
	"gridseg/internal/server"
	"gridseg/internal/store"
)

// stack is one running segd: a file-backed store, a server on a
// loopback port and, in cluster mode, the coordinator's two fabric
// workers, all in this process.
type stack struct {
	dir     string
	srv     *server.Server
	hs      *http.Server
	served  chan error
	cancel  context.CancelFunc // stops the workers; nil until they start
	workers sync.WaitGroup
	client  *client
}

type stackOptions struct {
	cluster bool
	// maxRuns bounds the server's run registry (0: the server default).
	maxRuns int
	// fill, when non-nil, runs against the opened store before the
	// server starts (serve-cached pre-fills its cache this way).
	fill func(gridseg.CellStore) error
	// warmSpec, when set, is a sweep run once through the server before
	// startStack returns. It is submitted before the workers start, so
	// their first lease finds work instead of entering the idle poll.
	warmSpec  string
	warmSeed  uint64
	warmCells int
}

// fabricWorkers is the number of in-process fabric workers in cluster
// mode: one per CPU of the 2-CPU machine the benchmark is sized for.
const fabricWorkers = 2

// startStack opens a fresh store in dir and brings a server up on it.
// With a tracer, the store, the handler, the workers' HTTP clients and
// their Runner are wrapped so that each layer's calls are timed.
func startStack(tr *tracer, dir string, opt stackOptions) (*stack, error) {
	st, err := store.Open(dir)
	if err != nil {
		return nil, err
	}
	if opt.fill != nil {
		if err := opt.fill(st); err != nil {
			return nil, err
		}
	}
	var cs gridseg.CellStore = st
	if tr != nil {
		cs = tr.store(st)
	}
	srv, err := server.New(server.Options{Store: cs, Cluster: opt.cluster, MaxRuns: opt.maxRuns})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	h := srv.Handler()
	if tr != nil {
		h = tr.middleware(h)
	}
	s := &stack{
		dir:    dir,
		srv:    srv,
		hs:     &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second},
		served: make(chan error, 1),
	}
	base := "http://" + ln.Addr().String()
	go func() { s.served <- s.hs.Serve(ln) }()
	s.client = newClient(base)

	if err := s.client.healthy(); err != nil {
		s.close()
		return nil, err
	}
	var warmID string
	if opt.warmSpec != "" {
		status, st, err := s.client.submit(opt.warmSpec, opt.warmSeed, "")
		if err == nil && status != http.StatusAccepted {
			err = fmt.Errorf("warm-up POST answered %d", status)
		}
		if err != nil {
			s.close()
			return nil, err
		}
		warmID = st.ID
		if opt.cluster {
			if err := s.client.registered(warmID); err != nil {
				s.close()
				return nil, err
			}
		}
	}

	ctx, cancel := context.WithCancel(context.Background())
	s.cancel = cancel
	if opt.cluster {
		for i := 1; i <= fabricWorkers; i++ {
			w := &fabric.Worker{
				Name:        fmt.Sprintf("w%d", i),
				Coordinator: base + "/fabric",
				Store:       store.NewRemote(base+"/objects", nil),
				Runner:      gridseg.ComputeJob,
			}
			if tr != nil {
				hc := &http.Client{Transport: tr.transport()}
				w.Client = hc
				w.Store = store.NewRemote(base+"/objects", hc)
				w.Runner = tr.runner(gridseg.ComputeJob)
			}
			s.workers.Add(1)
			go func() {
				defer s.workers.Done()
				w.Run(ctx) // returns ctx.Err() once stopped
			}()
		}
	}
	if warmID != "" {
		if err := s.warmup(warmID, opt.warmCells); err != nil {
			s.close()
			return nil, fmt.Errorf("warm-up sweep: %w", err)
		}
	}
	return s, nil
}

func (s *stack) warmup(id string, cells int) error {
	ev, err := s.client.follow(id, "")
	if err != nil {
		return err
	}
	if ev.misses != cells {
		return fmt.Errorf("computed %d cells, want %d", ev.misses, cells)
	}
	csv, err := s.client.get("/grids/"+id+"/artifact.csv", "")
	if err != nil {
		return err
	}
	return checkArtifact(csv, cells)
}

// close stops the workers, the HTTP server and the server's dispatcher,
// waits for each, and removes the store.
func (s *stack) close() {
	if s.cancel != nil {
		s.cancel()
	}
	s.workers.Wait()
	s.hs.Close()
	if err := <-s.served; err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(os.Stderr, "e2ebench: serve:", err)
	}
	s.srv.Close()
	s.client.close()
	os.RemoveAll(s.dir)
}
