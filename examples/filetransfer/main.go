// Filetransfer: a bulk file service over the zero-copy ORB, discovered
// through the naming service.
//
//	go run ./examples/filetransfer
//
// A server ORB exports a FileStore object serving a directory of
// generated files; the interface is written directly against the ORB's
// dynamic API (no idlgen) to show how hand-rolled servants work. The
// read() operation returns the file body as a sequence<ZC_Octet>, so a
// 64 MiB fetch crosses the middleware without a single user-space
// payload copy — the paper's bulk-transfer scenario (§1: "high
// performance distributed computing often need large amounts of data
// to be moved").
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"zcorba/internal/naming"
	"zcorba/internal/orb"
	"zcorba/internal/transport"
	"zcorba/internal/typecode"
	"zcorba/internal/zcbuf"
)

// fileStoreIface is the hand-written contract of the file service.
var fileStoreIface = orb.NewInterface("IDL:zcorba/Examples/FileStore:1.0", "FileStore",
	&orb.Operation{
		Name:   "list",
		Result: typecode.SequenceOf(typecode.TCString, 0),
	},
	&orb.Operation{
		Name:   "size",
		Params: []orb.Param{{Name: "name", Type: typecode.TCString, Dir: orb.In}},
		Result: typecode.TCULongLong,
	},
	&orb.Operation{
		Name:   "read",
		Params: []orb.Param{{Name: "name", Type: typecode.TCString, Dir: orb.In}},
		Result: typecode.TCZCOctetSeq,
	},
)

// fileStore serves the files of one directory.
type fileStore struct {
	dir string
	mu  sync.Mutex
}

func (f *fileStore) Interface() *orb.Interface { return fileStoreIface }

func (f *fileStore) Invoke(op string, args []any) (any, []any, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	switch op {
	case "list":
		entries, err := os.ReadDir(f.dir)
		if err != nil {
			return nil, nil, err
		}
		var names []any
		for _, e := range entries {
			if !e.IsDir() {
				names = append(names, e.Name())
			}
		}
		sort.Slice(names, func(i, j int) bool { return names[i].(string) < names[j].(string) })
		return names, nil, nil
	case "size":
		st, err := os.Stat(filepath.Join(f.dir, filepath.Base(args[0].(string))))
		if err != nil {
			return nil, nil, &orb.SystemException{Name: "OBJECT_NOT_EXIST"}
		}
		return uint64(st.Size()), nil, nil
	case "read":
		fh, err := os.Open(filepath.Join(f.dir, filepath.Base(args[0].(string))))
		if err != nil {
			return nil, nil, &orb.SystemException{Name: "OBJECT_NOT_EXIST"}
		}
		st, err := fh.Stat()
		if err != nil {
			_ = fh.Close()
			return nil, nil, &orb.SystemException{Name: "OBJECT_NOT_EXIST"}
		}
		// The open file itself becomes the deposit payload: on the tcp
		// data plane the ORB transmits it disk→wire with sendfile, so
		// the body never enters this process's user space. The ORB
		// closes the file after the reply is written.
		payload, err := zcbuf.WrapFile(fh, 0, st.Size())
		if err != nil {
			_ = fh.Close()
			return nil, nil, &orb.SystemException{Name: "IMP_LIMIT"}
		}
		return payload, nil, nil
	default:
		return nil, nil, &orb.SystemException{Name: "BAD_OPERATION"}
	}
}

func main() {
	dir, err := os.MkdirTemp("", "zcorba-files-")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	// Generate a few files, one of them large.
	sizes := map[string]int{"small.bin": 4 << 10, "medium.bin": 1 << 20, "large.bin": 64 << 20}
	sums := map[string]string{}
	for name, n := range sizes {
		body := make([]byte, n)
		for i := range body {
			body[i] = byte(i * 31)
		}
		if err := os.WriteFile(filepath.Join(dir, name), body, 0o644); err != nil {
			log.Fatal(err)
		}
		h := sha256.Sum256(body)
		sums[name] = hex.EncodeToString(h[:8])
	}

	// --- server: naming service + file store ------------------------------
	// The default data plane is tcp, which sends file bodies by sendfile.
	server, err := orb.New(orb.Options{Transport: &transport.TCP{}, ZeroCopy: true})
	if err != nil {
		log.Fatal(err)
	}
	nsIOR, err := naming.Serve(server)
	if err != nil {
		log.Fatal(err)
	}
	fsRef, err := server.Activate("filestore", &fileStore{dir: dir})
	if err != nil {
		log.Fatal(err)
	}
	serverNC, err := naming.Connect(server, nsIOR)
	if err != nil {
		log.Fatal(err)
	}
	if err := serverNC.Bind("services/filestore", fsRef); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("server: file store serving %s\n", dir)

	// --- client: discover and fetch ---------------------------------------
	client, err := orb.New(orb.Options{Transport: &transport.TCP{}, ZeroCopy: true})
	if err != nil {
		log.Fatal(err)
	}
	nc, err := naming.Connect(client, nsIOR)
	if err != nil {
		log.Fatal(err)
	}
	store, err := nc.Resolve("services/filestore")
	if err != nil {
		log.Fatal(err)
	}

	listRes, _, err := store.Invoke(fileStoreIface.Ops["list"], nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("client: remote directory: %v\n", listRes)

	failed := false
	for _, item := range listRes.([]any) {
		name := item.(string)
		szRes, _, err := store.Invoke(fileStoreIface.Ops["size"], []any{name})
		if err != nil {
			log.Fatal(err)
		}
		start := time.Now()
		body, _, err := store.Invoke(fileStoreIface.Ops["read"], []any{name})
		if err != nil {
			log.Fatal(err)
		}
		buf := body.(*zcbuf.Buffer)
		elapsed := time.Since(start)
		h := sha256.Sum256(buf.Bytes())
		sum := hex.EncodeToString(h[:8])
		status := "OK"
		if sum != sums[name] {
			status = "CORRUPT"
			failed = true
		}
		mbps := float64(buf.Len()) * 8 / elapsed.Seconds() / 1e6
		fmt.Printf("client: read %-10s %9d bytes (size op said %d) sha256/8=%s %s  %7.0f Mbit/s, aligned=%v\n",
			name, buf.Len(), szRes, sum, status, mbps, buf.IsPageAligned())
		buf.Release()
	}

	// Read the counters once both ORBs have stopped, so the last reply's
	// deposit is counted.
	client.Shutdown()
	server.Shutdown()
	st := client.Stats()
	fmt.Printf("\nclient ORB: %d deposits received (%d bytes), payload copies=%d\n",
		st.DepositsReceived.Load(), st.DepositBytesRecv.Load(), st.PayloadCopies.Load())
	sst := server.Stats()
	fmt.Printf("server ORB: %d deposits sent (%d bytes), payload copies=%d (%d bytes)\n",
		sst.DepositsSent.Load(), sst.DepositBytesSent.Load(),
		sst.PayloadCopies.Load(), sst.PayloadCopyBytes.Load())
	// The file bodies went disk→wire by sendfile: any server-side
	// payload copy means a file was read into memory, or a request body
	// the server's framer mispredicted was moved instead of kept.
	if n := sst.PayloadCopyBytes.Load(); n != 0 {
		log.Fatalf("server copied %d payload bytes; want 0 (sendfile)", n)
	}
	if failed {
		log.Fatal("a file arrived corrupted")
	}
}
