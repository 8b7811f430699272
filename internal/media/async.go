// Hand-written companions to the generated stubs for asynchronous and
// pipelined invocation (orb.ObjectRef.InvokeAsync / orb.Pipeline),
// which need the raw operation descriptor and argument encoding the
// synchronous stub methods keep private.
package media

import (
	"fmt"

	"zcorba/internal/cdr"
	"zcorba/internal/orb"
	"zcorba/internal/zcbuf"
)

// EncodeOp is the runtime operation descriptor of
// Media::Encoder::encode.
var EncodeOp = Media_EncoderIface.Ops["encode"]

// EncodeArgs builds the argument list for an encode invocation,
// matching the generated stub's marshaling.
func EncodeArgs(info Media_FrameInfo, frame *zcbuf.Buffer) []any {
	return []any{media_FrameInfo_toAny(info), frame}
}

// EncodeZCOp is the runtime operation descriptor of
// Media::Encoder::encode_zc — the gathered form of encode, whose two
// ZC octet streams (marshaled FrameInfo + raw frame) travel as one
// deposit train of an ordinary call.
var EncodeZCOp = Media_EncoderIface.Ops["encode_zc"]

// MarshalFrameInfo packs info into the meta segment of an encode_zc
// train. The encoding is plain big-endian CDR, so the blob stays valid
// on the marshaled fallback path too.
func MarshalFrameInfo(info Media_FrameInfo) (*zcbuf.Buffer, error) {
	e := cdr.NewEncoder(cdr.BigEndian, 0)
	if err := info.MarshalCDR(e); err != nil {
		return nil, err
	}
	return zcbuf.Wrap(e.Bytes()), nil
}

// UnmarshalFrameInfo is the servant-side inverse of MarshalFrameInfo.
func UnmarshalFrameInfo(meta *zcbuf.Buffer) (Media_FrameInfo, error) {
	var info Media_FrameInfo
	d := cdr.NewDecoder(cdr.BigEndian, 0, meta.Bytes())
	if err := info.UnmarshalCDR(d); err != nil {
		return Media_FrameInfo{}, fmt.Errorf("media: encode_zc meta: %w", err)
	}
	return info, nil
}

// EncodeError maps a raw invocation error to the typed exceptions the
// generated Encode stub method returns.
func EncodeError(err error) error {
	if ue, ok := err.(*orb.UserException); ok {
		if ue.Type.RepoID() == "IDL:zcorba/Media/TransferError:1.0" {
			ex := media_TransferError_fromAny(ue.Fields)
			return &ex
		}
	}
	return err
}
