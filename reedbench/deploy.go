package main

import (
	"context"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/abe"
	"repro/internal/chunker"
	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/keymanager"
	"repro/internal/keyreg"
	"repro/internal/metrics"
	"repro/internal/oprf"
	"repro/internal/server"
	"repro/internal/store"
)

// Deployment shape. Fixed so every run, seed and commit measures the
// same system: two data shards and one key-store server over fsynced
// disk:// stores, one key manager with a 1024-bit OPRF key, enhanced
// CAONT, Rabin chunking at 2/8/16 KB.
const (
	dataShards = 2
	oprfBits   = 1024
	ownerBits  = keyreg.DefaultBits
)

var (
	benchScheme   = core.SchemeEnhanced
	benchChunking = chunker.Options{MinSize: 2 << 10, AvgSize: 8 << 10, MaxSize: 16 << 10}
)

// user is one identity's access material: an ABE private key and, for
// users who upload or rekey, a key-regression owner.
type user struct {
	priv  *abe.PrivateKey
	owner *keyreg.Owner
}

// deployment is one REED system booted in this process on loopback TCP.
type deployment struct {
	dir string

	kmKey     *oprf.ServerKey
	km        *keymanager.Server
	servers   []*server.Server // data shards, then the key-store server
	serverReg []*metrics.Registry
	listeners []net.Listener
	serveWG   sync.WaitGroup

	kmAddr     string
	shardAddrs []string
	keyAddr    string

	// pub is the published public-key bundle clients seal key states
	// with; the authority itself never reaches a client.
	pub   abe.PublicKeys
	users map[string]*user

	tr     *tracer // nil in an untraced run
	closed bool
}

// storeDirs are the store directories under the deployment directory,
// index-aligned with servers.
func (d *deployment) storeDirs() []string {
	dirs := make([]string, 0, dataShards+1)
	for i := 0; i < dataShards; i++ {
		dirs = append(dirs, filepath.Join(d.dir, fmt.Sprintf("shard%d", i)))
	}
	return append(dirs, filepath.Join(d.dir, "keystore"))
}

// boot starts a deployment in a fresh directory dir. userIDs lists every
// identity the workload needs; owners lists those that upload or rekey
// and so need a key-regression chain. Key generation (the OPRF key and
// one RSA chain per owner) happens here and is part of set-up time.
func boot(ctx context.Context, dir string, userIDs, owners []string, tr *tracer) (*deployment, error) {
	d := &deployment{dir: dir, tr: tr, users: make(map[string]*user)}
	ok := false
	defer func() {
		if !ok {
			d.close()
		}
	}()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}

	var err error
	d.kmKey, err = oprf.GenerateServerKey(oprfBits, nil)
	if err != nil {
		return nil, fmt.Errorf("key manager key: %w", err)
	}
	d.km = keymanager.NewServer(d.kmKey, keymanager.WithMetrics(metrics.NewRegistry()))
	kmLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	d.listeners = append(d.listeners, kmLn)
	d.kmAddr = kmLn.Addr().String()
	d.serveWG.Add(1)
	go func() {
		defer d.serveWG.Done()
		_ = d.km.Serve(kmLn)
	}()

	for i, sdir := range d.storeDirs() {
		disk, err := store.NewDisk(sdir)
		if err != nil {
			return nil, err
		}
		var backend store.Backend = disk
		if tr != nil {
			backend = tr.wrapBackend(disk, i)
		}
		reg := metrics.NewRegistry()
		srv, err := server.New(ctx, backend, server.WithMetrics(reg))
		if err != nil {
			_ = disk.Close()
			return nil, err
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			_ = srv.Shutdown()
			return nil, err
		}
		d.servers = append(d.servers, srv)
		d.serverReg = append(d.serverReg, reg)
		d.listeners = append(d.listeners, ln)
		d.serveWG.Add(1)
		go func() {
			defer d.serveWG.Done()
			_ = srv.Serve(ln)
		}()
		if i < dataShards {
			d.shardAddrs = append(d.shardAddrs, ln.Addr().String())
		} else {
			d.keyAddr = ln.Addr().String()
		}
	}

	authority, err := abe.NewAuthority(nil)
	if err != nil {
		return nil, err
	}
	d.pub = authority.PublicKeys(userIDs)
	for _, id := range userIDs {
		d.users[id] = &user{priv: authority.IssueKey(id, []string{id})}
	}
	for _, id := range owners {
		d.users[id].owner, err = keyreg.NewOwner(ownerBits, nil)
		if err != nil {
			return nil, fmt.Errorf("owner key for %s: %w", id, err)
		}
	}
	ok = true
	return d, nil
}

// newClient connects one user's client with the daemons' default
// pipeline settings. Every client gets a metrics registry, as
// reed-client does.
func (d *deployment) newClient(ctx context.Context, id string) (*client.Client, error) {
	u := d.users[id]
	cfg := client.Config{
		UserID:         id,
		Scheme:         benchScheme,
		DataServers:    d.shardAddrs,
		KeyStoreServer: d.keyAddr,
		KeyManager:     d.kmAddr,
		Chunking:       benchChunking,
		PrivateKey:     u.priv,
		Directory:      d.pub,
		Owner:          u.owner,
		Metrics:        metrics.NewRegistry(),
	}
	if d.tr != nil {
		cfg.Dialer = d.tr.dialer(d)
	}
	c, err := client.New(ctx, cfg)
	if err != nil {
		return nil, fmt.Errorf("client %s: %w", id, err)
	}
	return c, nil
}

// close shuts every daemon down, waits for the serve loops, and closes
// the stores; calls after the first do nothing. It does not remove the
// directory.
func (d *deployment) close() {
	if d.closed {
		return
	}
	d.closed = true
	if d.km != nil {
		d.km.Shutdown()
	}
	for _, s := range d.servers {
		_ = s.Shutdown()
		_ = s.Backend().Close()
	}
	for _, ln := range d.listeners {
		_ = ln.Close()
	}
	d.serveWG.Wait()
}

// storedBytes sums the sizes of every file under the store directories.
func (d *deployment) storedBytes() (int64, error) {
	var total int64
	for _, dir := range d.storeDirs() {
		err := filepath.WalkDir(dir, func(_ string, e os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if e.Type().IsRegular() {
				info, err := e.Info()
				if err != nil {
					return err
				}
				total += info.Size()
			}
			return nil
		})
		if err != nil {
			return 0, err
		}
	}
	return total, nil
}

// bootTimed boots n deployments one after another in sibling
// directories, keeps the last and tears the others down, and returns
// the median wall and CPU time of a boot. Boot time is dominated by RSA
// prime search, whose duration is random; the median of several boots
// keeps setup_s steady from run to run.
func bootTimed(ctx context.Context, root string, n int, userIDs, owners []string, tr *tracer) (*deployment, cost, error) {
	var wall, cpu []float64
	var d *deployment
	for i := 0; i < n; i++ {
		if d != nil {
			d.close()
			if err := os.RemoveAll(d.dir); err != nil {
				return nil, cost{}, err
			}
		}
		start, cpuStart := time.Now(), processCPU()
		var err error
		d, err = boot(ctx, filepath.Join(root, fmt.Sprintf("boot%d", i)), userIDs, owners, tr)
		if err != nil {
			return nil, cost{}, err
		}
		wall = append(wall, time.Since(start).Seconds())
		cpu = append(cpu, (processCPU() - cpuStart).Seconds())
	}
	return d, cost{seconds(median(wall)), seconds(median(cpu))}, nil
}

// cost is the wall and CPU time a piece of work took.
type cost struct{ wall, cpu time.Duration }

func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }
