// Package ior implements Interoperable Object References: the
// addressing structure CORBA clients hold for remote objects.
//
// An IOR carries a repository type ID and a list of tagged profiles.
// This ORB produces IIOP profiles, optionally extended with tagged
// components. The paper's zero-copy extension adds the ZCDeposit
// component, which advertises (a) the server's architecture signature
// (so a client can verify the homogeneity precondition for marshaling
// bypass, §2.1) and (b) the endpoint of the server's dedicated data
// channel used for direct-deposit transfers (§4.4-4.5).
package ior

import (
	"encoding/hex"
	"fmt"
	"strconv"
	"strings"

	"zcorba/internal/cdr"
)

// Standard profile and component tags (OMG assigned).
const (
	// TagInternetIOP is the profile tag of IIOP profiles.
	TagInternetIOP uint32 = 0
	// TagMultipleComponents is the profile tag of component-only
	// profiles.
	TagMultipleComponents uint32 = 1
	// TagORBType is the component carrying the ORB vendor ID.
	TagORBType uint32 = 0
)

// Vendor-range tags used by the zero-copy extension. Real deployments
// would register these with the OMG; any value outside the assigned
// space works for a prototype, exactly as in the paper's MICO fork.
const (
	// TagZCDeposit advertises that the server takes direct-deposit
	// trains on its control stream, with its architecture signature.
	TagZCDeposit uint32 = 0x5A430001
	// TagZCShm advertises a shared-memory data plane endpoint: the
	// server's host identity (for co-location discovery) and the Unix
	// socket path of its shm data listener. Only a client on the same
	// host with a matching architecture signature may use it.
	TagZCShm uint32 = 0x5A430004
	// TagZCShmBcast advertises the ZC-SHM-BCAST pub/sub profile of an
	// event channel: the producer's host identity plus the Unix socket
	// where co-located subscribers attach to the broadcast ring. Same
	// co-location precondition as TagZCShm; remote subscribers ignore
	// it and keep the per-copy oneway push path.
	TagZCShmBcast uint32 = 0x5A430005
)

// TaggedComponent is an opaque component inside an IIOP profile.
type TaggedComponent struct {
	Tag  uint32
	Data []byte
}

// TaggedProfile is an opaque profile inside an IOR.
type TaggedProfile struct {
	Tag  uint32
	Data []byte
}

// IIOPProfile is the decoded form of a TagInternetIOP profile.
type IIOPProfile struct {
	Major, Minor byte
	Host         string
	Port         uint16
	ObjectKey    []byte
	Components   []TaggedComponent
}

// ZCDeposit is the decoded form of a TagZCDeposit component.
type ZCDeposit struct {
	// Arch is the architecture signature, e.g. "amd64/little/go".
	// Direct deposit requires client and server signatures to match
	// (the paper's homogeneity precondition).
	Arch string
	// Host and Port name the server's control endpoint, which carries
	// its deposit trains; a client never dials them. A reference minted
	// before deposits moved onto the control stream names a separate
	// data listener here, and is served the same way.
	Host string
	Port uint16
}

// IOR is an interoperable object reference.
type IOR struct {
	TypeID   string
	Profiles []TaggedProfile
}

// Nil reports whether the IOR is a nil object reference (no profiles).
func (r IOR) Nil() bool { return len(r.Profiles) == 0 }

// NewIIOP builds an IOR with a single IIOP 1.0 profile.
func NewIIOP(typeID, host string, port uint16, objectKey []byte, comps ...TaggedComponent) IOR {
	p := IIOPProfile{Major: 1, Minor: 0, Host: host, Port: port,
		ObjectKey: objectKey, Components: comps}
	return IOR{TypeID: typeID, Profiles: []TaggedProfile{p.Encode()}}
}

// Encode serializes the IIOP profile body as a CDR encapsulation and
// wraps it in a TaggedProfile.
func (p IIOPProfile) Encode() TaggedProfile {
	e := cdr.NewEncoder(cdr.NativeOrder, 0)
	e.WriteEncapsulation(cdr.NativeOrder, func(inner *cdr.Encoder) {
		inner.WriteOctet(p.Major)
		inner.WriteOctet(p.Minor)
		inner.WriteString(p.Host)
		inner.WriteUShort(p.Port)
		inner.WriteOctetSeq(p.ObjectKey)
		inner.WriteULong(uint32(len(p.Components)))
		for _, c := range p.Components {
			inner.WriteULong(c.Tag)
			inner.WriteOctetSeq(c.Data)
		}
	})
	// Strip the leading sequence length that WriteEncapsulation adds:
	// TaggedProfile.Data is itself written as a sequence<octet> later,
	// so here we keep only the encapsulated bytes.
	raw := e.Bytes()
	d := cdr.NewDecoder(cdr.NativeOrder, 0, raw)
	body, err := d.ReadOctetSeqView()
	if err != nil {
		panic("ior: internal encapsulation error: " + err.Error())
	}
	return TaggedProfile{Tag: TagInternetIOP, Data: body}
}

// DecodeIIOP parses a TagInternetIOP profile body.
func DecodeIIOP(tp TaggedProfile) (IIOPProfile, error) {
	var p IIOPProfile
	if tp.Tag != TagInternetIOP {
		return p, fmt.Errorf("ior: profile tag %d is not IIOP", tp.Tag)
	}
	if len(tp.Data) < 1 {
		return p, fmt.Errorf("ior: empty IIOP profile")
	}
	d := cdr.NewDecoder(cdr.ByteOrder(tp.Data[0]&1), 1, tp.Data[1:])
	var err error
	if p.Major, err = d.ReadOctet(); err != nil {
		return p, fmt.Errorf("ior: IIOP major: %w", err)
	}
	if p.Minor, err = d.ReadOctet(); err != nil {
		return p, fmt.Errorf("ior: IIOP minor: %w", err)
	}
	if p.Host, err = d.ReadString(); err != nil {
		return p, fmt.Errorf("ior: IIOP host: %w", err)
	}
	// A hostname with embedded NULs is never legitimate and would
	// otherwise flow into the dialer verbatim (found by FuzzIORParse).
	if strings.ContainsRune(p.Host, 0) {
		return p, fmt.Errorf("ior: IIOP host contains NUL")
	}
	if p.Port, err = d.ReadUShort(); err != nil {
		return p, fmt.Errorf("ior: IIOP port: %w", err)
	}
	if p.ObjectKey, err = d.ReadOctetSeq(); err != nil {
		return p, fmt.Errorf("ior: IIOP object key: %w", err)
	}
	n, err := d.ReadULong()
	if err != nil {
		// IIOP 1.0 profiles may omit the component list entirely.
		return p, nil
	}
	if n > 1024 {
		return p, fmt.Errorf("ior: %d components", n)
	}
	p.Components = make([]TaggedComponent, n)
	for i := range p.Components {
		if p.Components[i].Tag, err = d.ReadULong(); err != nil {
			return p, fmt.Errorf("ior: component tag: %w", err)
		}
		if p.Components[i].Data, err = d.ReadOctetSeq(); err != nil {
			return p, fmt.Errorf("ior: component data: %w", err)
		}
	}
	return p, nil
}

// IIOP returns the first decodable IIOP profile, if any.
func (r IOR) IIOP() (IIOPProfile, bool) {
	for _, tp := range r.Profiles {
		if tp.Tag != TagInternetIOP {
			continue
		}
		p, err := DecodeIIOP(tp)
		if err == nil {
			return p, true
		}
	}
	return IIOPProfile{}, false
}

// Component returns the first component with the given tag from the
// first IIOP profile.
func (r IOR) Component(tag uint32) ([]byte, bool) {
	p, ok := r.IIOP()
	if !ok {
		return nil, false
	}
	return p.Component(tag)
}

// Component returns the first component with the given tag from this
// profile.
func (p IIOPProfile) Component(tag uint32) ([]byte, bool) {
	for _, c := range p.Components {
		if c.Tag == tag {
			return c.Data, true
		}
	}
	return nil, false
}

// Encode serializes a ZCDeposit as a tagged component.
func (z ZCDeposit) Encode() TaggedComponent {
	e := cdr.NewEncoder(cdr.NativeOrder, 1)
	e.WriteString(z.Arch)
	e.WriteString(z.Host)
	e.WriteUShort(z.Port)
	data := append([]byte{byte(cdr.NativeOrder)}, e.Bytes()...)
	return TaggedComponent{Tag: TagZCDeposit, Data: data}
}

// DecodeZCDeposit parses a TagZCDeposit component body.
func DecodeZCDeposit(data []byte) (ZCDeposit, error) {
	var z ZCDeposit
	if len(data) < 1 {
		return z, fmt.Errorf("ior: empty ZCDeposit component")
	}
	d := cdr.NewDecoder(cdr.ByteOrder(data[0]&1), 1, data[1:])
	var err error
	if z.Arch, err = d.ReadString(); err != nil {
		return z, fmt.Errorf("ior: ZCDeposit arch: %w", err)
	}
	if z.Host, err = d.ReadString(); err != nil {
		return z, fmt.Errorf("ior: ZCDeposit host: %w", err)
	}
	if strings.ContainsRune(z.Host, 0) {
		return z, fmt.Errorf("ior: ZCDeposit host contains NUL")
	}
	if z.Port, err = d.ReadUShort(); err != nil {
		return z, fmt.Errorf("ior: ZCDeposit port: %w", err)
	}
	return z, nil
}

// ZCShm is the decoded form of a TagZCShm component: the ZC-SHM
// profile of the shared-memory data plane.
type ZCShm struct {
	// Arch is the architecture signature, same precondition as
	// ZCDeposit.Arch.
	Arch string
	// HostID identifies the machine the server runs on (machine-id or
	// boot-id). A client uses the shm plane only when its own host ID
	// matches — co-location discovered from the object reference.
	HostID string
	// Path is the shm data listener endpoint ("shm:///path/to.sock").
	Path string
}

// Encode serializes a ZCShm as a tagged component.
func (z ZCShm) Encode() TaggedComponent {
	e := cdr.NewEncoder(cdr.NativeOrder, 1)
	e.WriteString(z.Arch)
	e.WriteString(z.HostID)
	e.WriteString(z.Path)
	data := append([]byte{byte(cdr.NativeOrder)}, e.Bytes()...)
	return TaggedComponent{Tag: TagZCShm, Data: data}
}

// maxShmName bounds ZCShm string fields. Socket paths are limited to
// ~108 bytes by the kernel anyway; anything longer (or carrying NULs)
// is a malformed or hostile reference, not a real endpoint.
const maxShmName = 1024

// DecodeZCShm parses a TagZCShm component body. Like the IIOP host
// fix, it rejects NUL bytes and overlong names so a hostile IOR
// cannot smuggle a weird path into the dialer.
func DecodeZCShm(data []byte) (ZCShm, error) {
	var z ZCShm
	if len(data) < 1 {
		return z, fmt.Errorf("ior: empty ZCShm component")
	}
	d := cdr.NewDecoder(cdr.ByteOrder(data[0]&1), 1, data[1:])
	var err error
	if z.Arch, err = d.ReadString(); err != nil {
		return z, fmt.Errorf("ior: ZCShm arch: %w", err)
	}
	if z.HostID, err = d.ReadString(); err != nil {
		return z, fmt.Errorf("ior: ZCShm host ID: %w", err)
	}
	if z.Path, err = d.ReadString(); err != nil {
		return z, fmt.Errorf("ior: ZCShm path: %w", err)
	}
	for _, f := range [...]struct{ name, v string }{
		{"arch", z.Arch}, {"host ID", z.HostID}, {"path", z.Path},
	} {
		if strings.ContainsRune(f.v, 0) {
			return ZCShm{}, fmt.Errorf("ior: ZCShm %s contains NUL", f.name)
		}
		if len(f.v) > maxShmName {
			return ZCShm{}, fmt.Errorf("ior: ZCShm %s overlong (%d bytes)", f.name, len(f.v))
		}
	}
	return z, nil
}

// ZCShm returns the decoded shared-memory component, if present.
func (r IOR) ZCShm() (ZCShm, bool) {
	data, ok := r.Component(TagZCShm)
	if !ok {
		return ZCShm{}, false
	}
	z, err := DecodeZCShm(data)
	if err != nil {
		return ZCShm{}, false
	}
	return z, true
}

// ZCShmBcast is the decoded form of a TagZCShmBcast component: the
// ZC-SHM-BCAST profile of a broadcast event channel.
type ZCShmBcast struct {
	// Arch is the architecture signature, same precondition as
	// ZCDeposit.Arch: the ring's records are native-order CDR.
	Arch string
	// HostID identifies the producer's machine; a subscriber maps the
	// ring only when its own host ID matches.
	HostID string
	// Path is the ring attach endpoint ("bcast:///path/to.sock"): a
	// Unix socket that hands the subscriber the segment geometry and
	// the memfd over SCM_RIGHTS.
	Path string
}

// Encode serializes a ZCShmBcast as a tagged component.
func (z ZCShmBcast) Encode() TaggedComponent {
	e := cdr.NewEncoder(cdr.NativeOrder, 1)
	e.WriteString(z.Arch)
	e.WriteString(z.HostID)
	e.WriteString(z.Path)
	data := append([]byte{byte(cdr.NativeOrder)}, e.Bytes()...)
	return TaggedComponent{Tag: TagZCShmBcast, Data: data}
}

// DecodeZCShmBcast parses a TagZCShmBcast component body, with the
// same NUL/overlong hostile-field rejection as DecodeZCShm.
func DecodeZCShmBcast(data []byte) (ZCShmBcast, error) {
	var z ZCShmBcast
	if len(data) < 1 {
		return z, fmt.Errorf("ior: empty ZCShmBcast component")
	}
	d := cdr.NewDecoder(cdr.ByteOrder(data[0]&1), 1, data[1:])
	var err error
	if z.Arch, err = d.ReadString(); err != nil {
		return z, fmt.Errorf("ior: ZCShmBcast arch: %w", err)
	}
	if z.HostID, err = d.ReadString(); err != nil {
		return z, fmt.Errorf("ior: ZCShmBcast host ID: %w", err)
	}
	if z.Path, err = d.ReadString(); err != nil {
		return z, fmt.Errorf("ior: ZCShmBcast path: %w", err)
	}
	for _, f := range [...]struct{ name, v string }{
		{"arch", z.Arch}, {"host ID", z.HostID}, {"path", z.Path},
	} {
		if strings.ContainsRune(f.v, 0) {
			return ZCShmBcast{}, fmt.Errorf("ior: ZCShmBcast %s contains NUL", f.name)
		}
		if len(f.v) > maxShmName {
			return ZCShmBcast{}, fmt.Errorf("ior: ZCShmBcast %s overlong (%d bytes)", f.name, len(f.v))
		}
	}
	return z, nil
}

// ZCShmBcast returns the decoded broadcast component, if present.
func (r IOR) ZCShmBcast() (ZCShmBcast, bool) {
	data, ok := r.Component(TagZCShmBcast)
	if !ok {
		return ZCShmBcast{}, false
	}
	z, err := DecodeZCShmBcast(data)
	if err != nil {
		return ZCShmBcast{}, false
	}
	return z, true
}

// ZCDeposit returns the decoded deposit component, if present.
func (r IOR) ZCDeposit() (ZCDeposit, bool) {
	data, ok := r.Component(TagZCDeposit)
	if !ok {
		return ZCDeposit{}, false
	}
	z, err := DecodeZCDeposit(data)
	if err != nil {
		return ZCDeposit{}, false
	}
	return z, true
}

// Marshal writes the IOR in its standard CDR form: type_id string then
// a sequence of tagged profiles.
func (r IOR) Marshal(e *cdr.Encoder) {
	// CDR strings cannot be empty; the type ID of a nil reference is
	// marshaled as a single NUL, which WriteString produces for "".
	e.WriteString(r.TypeID)
	e.WriteULong(uint32(len(r.Profiles)))
	for _, p := range r.Profiles {
		e.WriteULong(p.Tag)
		e.WriteOctetSeq(p.Data)
	}
}

// Unmarshal reads an IOR written by Marshal.
func Unmarshal(d *cdr.Decoder) (IOR, error) {
	var r IOR
	var err error
	if r.TypeID, err = d.ReadString(); err != nil {
		return r, fmt.Errorf("ior: type ID: %w", err)
	}
	n, err := d.ReadULong()
	if err != nil {
		return r, fmt.Errorf("ior: profile count: %w", err)
	}
	if n > 64 {
		return r, fmt.Errorf("ior: %d profiles", n)
	}
	r.Profiles = make([]TaggedProfile, n)
	for i := range r.Profiles {
		if r.Profiles[i].Tag, err = d.ReadULong(); err != nil {
			return r, fmt.Errorf("ior: profile tag: %w", err)
		}
		if r.Profiles[i].Data, err = d.ReadOctetSeq(); err != nil {
			return r, fmt.Errorf("ior: profile data: %w", err)
		}
	}
	return r, nil
}

// String renders the stringified "IOR:<hex>" form: a CDR encapsulation
// of the marshaled IOR, hex-encoded, as produced by object_to_string.
func (r IOR) String() string {
	e := cdr.NewEncoder(cdr.NativeOrder, 1)
	r.Marshal(e)
	raw := append([]byte{byte(cdr.NativeOrder)}, e.Bytes()...)
	return "IOR:" + hex.EncodeToString(raw)
}

// Parse decodes a stringified object reference: either "IOR:<hex>" or
// "corbaloc::host:port/key".
func Parse(s string) (IOR, error) {
	switch {
	case strings.HasPrefix(s, "IOR:"):
		raw, err := hex.DecodeString(s[4:])
		if err != nil {
			return IOR{}, fmt.Errorf("ior: bad hex: %w", err)
		}
		if len(raw) < 1 {
			return IOR{}, fmt.Errorf("ior: empty IOR body")
		}
		d := cdr.NewDecoder(cdr.ByteOrder(raw[0]&1), 1, raw[1:])
		return Unmarshal(d)
	case strings.HasPrefix(s, "corbaloc::"):
		rest := s[len("corbaloc::"):]
		slash := strings.IndexByte(rest, '/')
		if slash < 0 {
			return IOR{}, fmt.Errorf("ior: corbaloc missing /key")
		}
		addr, key := rest[:slash], rest[slash+1:]
		host, portStr, ok := strings.Cut(addr, ":")
		if !ok {
			return IOR{}, fmt.Errorf("ior: corbaloc missing port")
		}
		port, err := strconv.ParseUint(portStr, 10, 16)
		if err != nil {
			return IOR{}, fmt.Errorf("ior: corbaloc port: %w", err)
		}
		return NewIIOP("", host, uint16(port), []byte(key)), nil
	default:
		return IOR{}, fmt.Errorf("ior: unrecognized reference %q", truncate(s, 16))
	}
}

func truncate(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n] + "..."
}
