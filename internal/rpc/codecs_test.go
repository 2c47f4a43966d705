package rpc

import "time"

// The package's test message types all ride the binary codec, registered
// here at high IDs far from the runtime protocol's range.
func init() {
	registerTestCodec(60001, func(e *Encoder, r echoReq) { e.String(r.Text); e.Int(r.N) },
		func(d *Decoder) echoReq { return echoReq{Text: d.String(), N: d.Int()} })
	registerTestCodec(60002, func(e *Encoder, r echoResp) { e.String(r.Text); e.Int(r.N) },
		func(d *Decoder) echoResp { return echoResp{Text: d.String(), N: d.Int()} })
	registerTestCodec(60003, func(e *Encoder, r benchTaskReq) {
		e.String(r.DeviceID)
		e.Uvarint(r.TaskID)
		e.Bytes(r.Payload)
		e.Int(r.Exit)
	}, func(d *Decoder) benchTaskReq {
		return benchTaskReq{DeviceID: d.String(), TaskID: d.Uvarint(), Payload: d.Bytes(), Exit: d.Int()}
	})
	registerTestCodec(60004, func(e *Encoder, r slowReq) { e.Varint(int64(r.Delay)); e.Int(r.Tag) },
		func(d *Decoder) slowReq { return slowReq{Delay: time.Duration(d.Varint()), Tag: d.Int()} })
	registerTestCodec(60005, func(e *Encoder, r slowResp) { e.Int(r.Tag) },
		func(d *Decoder) slowResp { return slowResp{Tag: d.Int()} })
	registerTestCodec(60006, func(e *Encoder, r metaReq) { e.Int(r.Tag) },
		func(d *Decoder) metaReq { return metaReq{Tag: d.Int()} })
	registerTestCodec(60007, func(e *Encoder, r metaResp) { e.Int(r.Tag); e.Uvarint(r.TraceID); e.Uvarint(r.SpanID) },
		func(d *Decoder) metaResp { return metaResp{Tag: d.Int(), TraceID: d.Uvarint(), SpanID: d.Uvarint()} })
	registerTestCodec(60008, func(e *Encoder, r panicReq) { e.String(r.Msg) },
		func(d *Decoder) panicReq { return panicReq{Msg: d.String()} })
	registerTestCodec(60009, func(e *Encoder, r idemReq) { e.Int(r.N) },
		func(d *Decoder) idemReq { return idemReq{N: d.Int()} })
	registerTestCodec(60010, func(e *Encoder, r onceReq) { e.Int(r.N) },
		func(d *Decoder) onceReq { return onceReq{N: d.Int()} })
}

// registerTestCodec binds test type T to a typed encode/decode pair.
func registerTestCodec[T any](id uint16, enc func(*Encoder, T), dec func(*Decoder) T) {
	var prototype T
	RegisterCodec(id, prototype,
		func(e *Encoder, v any) { enc(e, v.(T)) },
		func(d *Decoder) (any, error) { return dec(d), nil })
}
