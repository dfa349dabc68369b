package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"

	"shbf/client"
	"shbf/internal/server"
)

// deployment is one in-process daemon on loopback listeners: ShBP,
// HTTP and (in the traced run) ShBU over UDP, each handed to the server
// through the benchmark's wrappers when tracing.
type deployment struct {
	srv      *server.Server
	shbpAddr string
	httpAddr string
	udpAddr  string
	udp      *udpTap // nil outside the traced run

	cancel  context.CancelFunc
	httpSrv *http.Server
	pc      net.PacketConn
	wg      sync.WaitGroup
	mu      sync.Mutex
	errs    []error
}

// udpReadBuffer is the ShBU socket's receive buffer, the size an
// ingest deployment would set so a burst of envelope fragments is not
// dropped by the kernel while the receiver applies the previous one.
const udpReadBuffer = 4 << 20

func deploy(cfg server.Config, tr *tracer) (*deployment, error) {
	srv, err := server.New(cfg)
	if err != nil {
		return nil, fmt.Errorf("server.New: %w", err)
	}
	d := &deployment{srv: srv}
	ctx, cancel := context.WithCancel(context.Background())
	d.cancel = cancel

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		cancel()
		return nil, err
	}
	d.shbpAddr = ln.Addr().String()
	d.serve(func() error { return srv.ServeShBP(ctx, tr.wrapListener(ln)) })

	hln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		d.close()
		return nil, err
	}
	d.httpAddr = hln.Addr().String()
	d.httpSrv = &http.Server{Handler: tr.wrapHandler(srv.Handler())}
	d.serve(func() error {
		if err := d.httpSrv.Serve(hln); !errors.Is(err, http.ErrServerClosed) {
			return err
		}
		return nil
	})

	if tr != nil {
		pc, err := net.ListenPacket("udp", "127.0.0.1:0")
		if err != nil {
			d.close()
			return nil, err
		}
		if err := pc.(*net.UDPConn).SetReadBuffer(udpReadBuffer); err != nil {
			pc.Close()
			d.close()
			return nil, err
		}
		d.pc = pc
		d.udpAddr = pc.LocalAddr().String()
		d.udp = newUDPTap(pc, tr)
		d.serve(func() error { return srv.ServeShBU(d.udp) })
	}
	return d, nil
}

func (d *deployment) serve(f func() error) {
	d.wg.Add(1)
	go func() {
		defer d.wg.Done()
		if err := f(); err != nil {
			d.mu.Lock()
			d.errs = append(d.errs, err)
			d.mu.Unlock()
		}
	}()
}

// close stops every listener and waits for the serving goroutines,
// HTTP connection goroutines included, so nothing keeps the daemon's
// state reachable afterwards.
func (d *deployment) close() error {
	d.cancel()
	if d.httpSrv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		if err := d.httpSrv.Shutdown(ctx); err != nil {
			d.httpSrv.Close()
		}
		cancel()
	}
	if d.pc != nil {
		d.pc.Close()
	}
	d.wg.Wait()
	d.mu.Lock()
	defer d.mu.Unlock()
	return errors.Join(d.errs...)
}

// dial opens one client on the workload's transport and makes one
// round trip, so ShBP connections are accepted in dial order and
// server-side connection i is client i.
func (d *deployment) dial(transport string) (*client.Client, error) {
	target := "shbp://" + d.shbpAddr
	if transport == "http" {
		target = "http://" + d.httpAddr
	}
	c, err := client.Dial(target)
	if err != nil {
		return nil, err
	}
	if err := c.Ping(); err != nil {
		c.Close()
		return nil, err
	}
	return c, nil
}
