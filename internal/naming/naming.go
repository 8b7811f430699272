// Package naming implements a CosNaming-style name service served over
// the ORB itself: clients bind stringified paths ("video/encoder-3")
// to object references and resolve them later. It is the standard
// CORBA substrate the examples use for service discovery, and it
// doubles as a demonstration of hand-written (non-idlgen) servants on
// the dynamic invocation surface.
package naming

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"

	"zcorba/internal/ior"
	"zcorba/internal/orb"
	"zcorba/internal/typecode"
)

// RepoID is the repository ID of the naming context interface.
const RepoID = "IDL:zcorba/Naming/Context:1.0"

// DefaultKey is the conventional object key of the bootstrap context,
// mirroring the "NameService" initial reference of CORBA.
const DefaultKey = "NameService"

// Exception TypeCodes (user exceptions raised by the service).
var (
	// TCNotFound is raised by resolve/unbind for unknown names.
	TCNotFound = typecode.StructOf("IDL:zcorba/Naming/NotFound:1.0", "NotFound",
		typecode.Member{Name: "name", Type: typecode.TCString})
	// TCAlreadyBound is raised by bind when the name is taken.
	TCAlreadyBound = typecode.StructOf("IDL:zcorba/Naming/AlreadyBound:1.0", "AlreadyBound",
		typecode.Member{Name: "name", Type: typecode.TCString})
)

// Iface is the runtime contract of the naming context.
var Iface = orb.NewInterface(RepoID, "Context",
	&orb.Operation{
		Name: "bind",
		Params: []orb.Param{
			{Name: "name", Type: typecode.TCString, Dir: orb.In},
			{Name: "obj", Type: typecode.TCObjRef, Dir: orb.In},
		},
		Result:     typecode.TCVoid,
		Exceptions: []*typecode.TypeCode{TCAlreadyBound},
	},
	&orb.Operation{
		Name: "rebind",
		Params: []orb.Param{
			{Name: "name", Type: typecode.TCString, Dir: orb.In},
			{Name: "obj", Type: typecode.TCObjRef, Dir: orb.In},
		},
		Result: typecode.TCVoid,
		// Re-running a rebind that may have completed lands the same
		// binding, so the retry policy may re-send it after a
		// CompletedMaybe failure.
		Idempotent: true,
	},
	&orb.Operation{
		Name:       "resolve",
		Params:     []orb.Param{{Name: "name", Type: typecode.TCString, Dir: orb.In}},
		Result:     typecode.TCObjRef,
		Exceptions: []*typecode.TypeCode{TCNotFound},
		Idempotent: true,
	},
	&orb.Operation{
		Name:       "unbind",
		Params:     []orb.Param{{Name: "name", Type: typecode.TCString, Dir: orb.In}},
		Result:     typecode.TCVoid,
		Exceptions: []*typecode.TypeCode{TCNotFound},
	},
	&orb.Operation{
		Name:       "list",
		Params:     []orb.Param{{Name: "prefix", Type: typecode.TCString, Dir: orb.In}},
		Result:     typecode.SequenceOf(typecode.TCString, 0),
		Idempotent: true,
	},
)

// NotFound is the Go form of the NotFound exception.
type NotFound struct{ Name string }

// Error implements the error interface.
func (e *NotFound) Error() string { return fmt.Sprintf("naming: %q not found", e.Name) }

// AlreadyBound is the Go form of the AlreadyBound exception.
type AlreadyBound struct{ Name string }

// Error implements the error interface.
func (e *AlreadyBound) Error() string { return fmt.Sprintf("naming: %q already bound", e.Name) }

// Server is the naming context servant. The zero value is ready.
// With StorePath set, bindings persist across restarts as a JSON file
// of stringified IORs (the "persistent naming service" deployments
// run so references survive daemon restarts).
type Server struct {
	// StorePath, if non-empty, is the JSON file bindings persist to.
	StorePath string

	mu    sync.Mutex
	table map[string]ior.IOR
}

// Load reads persisted bindings from StorePath (missing file is fine).
func (s *Server) Load() error {
	if s.StorePath == "" {
		return nil
	}
	raw, err := os.ReadFile(s.StorePath)
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("naming: load store: %w", err)
	}
	var flat map[string]string
	if err := json.Unmarshal(raw, &flat); err != nil {
		return fmt.Errorf("naming: parse store: %w", err)
	}
	table := make(map[string]ior.IOR, len(flat))
	for name, iorStr := range flat {
		ref, err := ior.Parse(iorStr)
		if err != nil {
			return fmt.Errorf("naming: stored binding %q: %w", name, err)
		}
		table[name] = ref
	}
	s.mu.Lock()
	s.table = table
	s.mu.Unlock()
	return nil
}

// persistLocked writes the table to StorePath; the caller holds s.mu.
// The file is written to a temporary sibling, synced and renamed over
// the store, so a crash leaves either the old or the new table.
func (s *Server) persistLocked() error {
	if s.StorePath == "" {
		return nil
	}
	flat := make(map[string]string, len(s.table))
	for name, ref := range s.table {
		flat[name] = ref.String()
	}
	raw, err := json.MarshalIndent(flat, "", "  ")
	if err != nil {
		return err
	}
	tmp := s.StorePath + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err = f.Write(raw); err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, s.StorePath)
	}
	if err != nil {
		_ = os.Remove(tmp)
	}
	return err
}

// errPersist answers a mutation whose store write failed. The
// in-memory change has been undone, so nothing was bound.
var errPersist = &orb.SystemException{Name: "PERSIST_STORE", Completed: orb.CompletedNo}

// Interface implements orb.Servant.
func (s *Server) Interface() *orb.Interface { return Iface }

// Invoke implements orb.Servant.
func (s *Server) Invoke(op string, args []any) (any, []any, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.table == nil {
		s.table = make(map[string]ior.IOR)
	}
	switch op {
	case "bind":
		name := args[0].(string)
		if _, dup := s.table[name]; dup {
			return nil, nil, &orb.UserException{Type: TCAlreadyBound, Fields: []any{name}}
		}
		s.table[name] = args[1].(ior.IOR)
		if s.persistLocked() != nil {
			delete(s.table, name)
			return nil, nil, errPersist
		}
		return nil, nil, nil
	case "rebind":
		name := args[0].(string)
		old, had := s.table[name]
		s.table[name] = args[1].(ior.IOR)
		if s.persistLocked() != nil {
			if had {
				s.table[name] = old
			} else {
				delete(s.table, name)
			}
			return nil, nil, errPersist
		}
		return nil, nil, nil
	case "resolve":
		name := args[0].(string)
		ref, ok := s.table[name]
		if !ok {
			return nil, nil, &orb.UserException{Type: TCNotFound, Fields: []any{name}}
		}
		return ref, nil, nil
	case "unbind":
		name := args[0].(string)
		old, ok := s.table[name]
		if !ok {
			return nil, nil, &orb.UserException{Type: TCNotFound, Fields: []any{name}}
		}
		delete(s.table, name)
		if s.persistLocked() != nil {
			s.table[name] = old
			return nil, nil, errPersist
		}
		return nil, nil, nil
	case "list":
		prefix := args[0].(string)
		var names []any
		for n := range s.table {
			if strings.HasPrefix(n, prefix) {
				names = append(names, n)
			}
		}
		sort.Slice(names, func(i, j int) bool { return names[i].(string) < names[j].(string) })
		return names, nil, nil
	default:
		return nil, nil, &orb.SystemException{Name: "BAD_OPERATION"}
	}
}

// Serve activates a fresh naming context on o under DefaultKey and
// returns its stringified IOR.
func Serve(o *orb.ORB) (string, error) {
	ref, err := o.Activate(DefaultKey, &Server{})
	if err != nil {
		return "", err
	}
	return ref.String(), nil
}

// Client is a typed proxy for a naming context.
type Client struct {
	orb *orb.ORB
	ref *orb.ObjectRef
}

// Connect resolves the naming service from a stringified IOR or
// corbaloc URL.
func Connect(o *orb.ORB, iorStr string) (*Client, error) {
	ref, err := o.StringToObject(iorStr)
	if err != nil {
		return nil, err
	}
	return &Client{orb: o, ref: ref}, nil
}

// Bind registers obj under name; it fails if the name is taken.
func (c *Client) Bind(name string, obj *orb.ObjectRef) error {
	_, _, err := c.ref.Invoke(Iface.Ops["bind"], []any{name, obj.IOR()})
	return mapErr(err)
}

// Rebind registers obj under name, replacing any existing binding.
func (c *Client) Rebind(name string, obj *orb.ObjectRef) error {
	_, _, err := c.ref.Invoke(Iface.Ops["rebind"], []any{name, obj.IOR()})
	return mapErr(err)
}

// Resolve returns the object bound under name.
func (c *Client) Resolve(name string) (*orb.ObjectRef, error) {
	res, _, err := c.ref.Invoke(Iface.Ops["resolve"], []any{name})
	if err != nil {
		return nil, mapErr(err)
	}
	r, ok := res.(ior.IOR)
	if !ok || r.Nil() {
		return nil, &NotFound{Name: name}
	}
	return c.orb.ObjectFromIOR(r), nil
}

// Unbind removes the binding under name.
func (c *Client) Unbind(name string) error {
	_, _, err := c.ref.Invoke(Iface.Ops["unbind"], []any{name})
	return mapErr(err)
}

// List returns the bound names with the given prefix, sorted.
func (c *Client) List(prefix string) ([]string, error) {
	res, _, err := c.ref.Invoke(Iface.Ops["list"], []any{prefix})
	if err != nil {
		return nil, mapErr(err)
	}
	items, _ := res.([]any)
	out := make([]string, len(items))
	for i, it := range items {
		out[i], _ = it.(string)
	}
	return out, nil
}

// mapErr converts wire exceptions to the package's typed errors.
func mapErr(err error) error {
	ue, ok := err.(*orb.UserException)
	if !ok {
		return err
	}
	name := ""
	if len(ue.Fields) == 1 {
		name, _ = ue.Fields[0].(string)
	}
	switch ue.Type.RepoID() {
	case TCNotFound.RepoID():
		return &NotFound{Name: name}
	case TCAlreadyBound.RepoID():
		return &AlreadyBound{Name: name}
	default:
		return err
	}
}
