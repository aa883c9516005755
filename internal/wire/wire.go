// Package wire is the host ↔ GemStone network link (paper §6: the present
// implementation has "GemStone running on its own hardware and
// communicating to user interface programs on host machines through a
// network link", and "Communication with GemStone is done in blocks of OPAL
// source code"). The protocol is length-prefixed frames over TCP, each a
// fixed binary layout of varints and length-prefixed strings (see
// maxFrame for the layout).
//
// Requests carry a client-chosen frame ID and are pipelined: a connection
// may have up to Config.MaxInFlight frames outstanding, responses are
// matched to requests by ID and may arrive out of order across sessions
// (per-session order is preserved), and the server coalesces back-to-back
// responses into one write. Overload is a first-class outcome: requests
// past the admission queue's depth or wait budget are shed with
// StatusOverloaded, requests past their deadline abort with
// StatusDeadlineExceeded, and a draining server sheds queued work with
// StatusShuttingDown — all retryable, all distinguishable from real errors.
package wire

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"time"

	"repro/internal/obs"
	"repro/internal/store"
)

// Op is a request operation.
type Op uint8

// Request operations.
const (
	OpLogin Op = iota + 1
	OpExecute
	OpCommit
	OpAbort
	OpLogout
	OpStats
	OpHealth
)

// Status classifies a failed response so clients can tell retryable
// conditions (overload, drain, deadline) from real errors without parsing
// message text. It is meaningful only when OK is false; the zero value is
// a generic failure.
type Status uint8

// Response statuses.
const (
	StatusError            Status = iota // generic failure (compile error, conflict, auth, ...)
	StatusOverloaded                     // shed by admission control; retry after backoff
	StatusShuttingDown                   // server draining; retry against another server or later
	StatusDeadlineExceeded               // the request's deadline expired; transaction rolled back
)

// Request is one client → server frame.
type Request struct {
	ID         uint64 // client-chosen frame id; echoed in the Response
	Op         Op
	User       string
	Password   string
	Session    uint64
	Source     string
	DeadlineNS uint64 // execution budget in ns; 0 = server default

	// arrival is stamped by the server's read loop the moment the frame is
	// decoded. The deadline budget is anchored here, so time a request
	// spends queued behind its session's earlier requests counts against
	// it. Never serialized.
	arrival time.Time
}

// Response is one server → client frame.
type Response struct {
	ID      uint64 // the Request.ID this answers
	OK      bool
	Status  Status // failure class; meaningful only when !OK
	Error   string
	Session uint64
	Result  string
	Output  string
	Time    uint64
	Stats   *obs.Snapshot     // OpStats only
	Health  []store.ArmHealth // OpHealth only
}

// ErrNotAuthorized reports a request naming a session the requesting
// connection does not own. Session IDs are bearer credentials: every
// session-scoped op is checked against the connection that logged it in.
var ErrNotAuthorized = errors.New("wire: session not owned by this connection")

// ErrOverloaded reports a request shed by admission control: the global
// queue was at depth, or the wait budget expired before a slot freed.
// Retryable — back off and resend.
var ErrOverloaded = errors.New("wire: server overloaded")

// ErrShuttingDown reports a request shed because the server is draining.
// Retryable against another server, or this one after it restarts.
var ErrShuttingDown = errors.New("wire: server shutting down")

// ErrDeadlineExceeded reports a request whose deadline expired before or
// during execution. Any partial work was rolled back.
var ErrDeadlineExceeded = errors.New("wire: request deadline exceeded")

// ErrCallTimeout reports a client call that gave up waiting for the
// server's response (see Client.SetCallTimeout). The request may still
// execute on the server; only the wait was abandoned.
var ErrCallTimeout = errors.New("wire: call timed out awaiting response")

// statusError is a failed response as the client surfaces it: the server's
// message verbatim, classified so errors.Is(err, ErrOverloaded) and
// friends work without string matching.
type statusError struct {
	status Status
	msg    string
}

func (e *statusError) Error() string { return e.msg }

func (e *statusError) Is(target error) bool {
	switch target {
	case ErrOverloaded:
		return e.status == StatusOverloaded
	case ErrShuttingDown:
		return e.status == StatusShuttingDown
	case ErrDeadlineExceeded:
		return e.status == StatusDeadlineExceeded
	}
	return false
}

// respErr converts a response into the error a client call returns.
func respErr(resp Response) error {
	if resp.OK {
		return nil
	}
	if resp.Status != StatusError {
		return &statusError{status: resp.Status, msg: resp.Error}
	}
	return errors.New(resp.Error)
}

// The frame layout. Every frame is a 4-byte big-endian body length, then
// the body. In the body an integer is an unsigned varint in its shortest
// form, and a string is a varint length followed by its bytes.
//
//	Request:  ID, op (1 byte), session, deadline ns, user, password, source
//	Response: ID, status (1 byte), session, time, error, result, output,
//	          payload kind (1 byte), payload string unless the kind is none
//
// The response's status byte is the Status, with bit 7 set when OK. The
// payload is the JSON of Stats (kind 1) or Health (kind 2). Decoding is
// strict: a truncated string, a bad or over-long varint, an unknown status
// or payload kind, a payload not in json.Marshal's own form, or bytes past
// the last field fail the frame, so every frame that decodes re-encodes to
// the same bytes.
const maxFrame = 16 << 20 // 16 MiB of OPAL source is enough for anyone

// errFrameTooLarge reports a frame whose body exceeds maxFrame. writeFrame
// returns it before writing anything, so the connection stays usable.
var errFrameTooLarge = errors.New("wire: frame exceeds the size limit")

// Response payload kinds.
const (
	payloadNone byte = iota
	payloadStats
	payloadHealth
)

const statusOK = 0x80 // the OK bit of a response's status byte

// writeFrame encodes a Request or Response as one frame and puts it on w
// in one Write. It returns the bytes written.
func writeFrame(w io.Writer, v any) (int, error) {
	frame, err := encodeFrame(v)
	if err != nil {
		return 0, err
	}
	return w.Write(frame)
}

// encodeFrame returns the frame of a Request or Response, header included.
func encodeFrame(v any) ([]byte, error) {
	var b []byte
	switch m := v.(type) {
	case Request:
		b = newFrame(len(m.User) + len(m.Password) + len(m.Source))
		b = binary.AppendUvarint(b, m.ID)
		b = append(b, byte(m.Op))
		b = binary.AppendUvarint(b, m.Session)
		b = binary.AppendUvarint(b, m.DeadlineNS)
		b = appendString(b, m.User)
		b = appendString(b, m.Password)
		b = appendString(b, m.Source)
	case Response:
		kind, payload, err := encodePayload(m)
		if err != nil {
			return nil, err
		}
		status := byte(m.Status)
		if m.OK {
			status |= statusOK
		}
		b = newFrame(len(m.Error) + len(m.Result) + len(m.Output) + len(payload))
		b = binary.AppendUvarint(b, m.ID)
		b = append(b, status)
		b = binary.AppendUvarint(b, m.Session)
		b = binary.AppendUvarint(b, m.Time)
		b = appendString(b, m.Error)
		b = appendString(b, m.Result)
		b = appendString(b, m.Output)
		b = append(b, kind)
		if kind != payloadNone {
			b = appendString(b, string(payload))
		}
	default:
		return nil, fmt.Errorf("wire: cannot encode %T", v)
	}
	n := len(b) - 4
	if n > maxFrame {
		return nil, fmt.Errorf("%w: %d bytes, limit %d", errFrameTooLarge, n, maxFrame)
	}
	binary.BigEndian.PutUint32(b, uint32(n))
	return b, nil
}

// newFrame returns an empty frame (its header still zero) with room for
// every fixed field plus strs bytes of strings.
func newFrame(strs int) []byte {
	return make([]byte, 4, 4+strs+8*binary.MaxVarintLen64+2)
}

func appendString(b []byte, s string) []byte {
	return append(binary.AppendUvarint(b, uint64(len(s))), s...)
}

// encodePayload picks a response's payload kind and encodes its JSON.
func encodePayload(m Response) (byte, []byte, error) {
	switch {
	case m.Stats != nil && m.Health != nil:
		return 0, nil, errors.New("wire: a response carries Stats or Health, not both")
	case m.Stats != nil:
		b, err := canonicalJSON(m.Stats)
		return payloadStats, b, err
	case m.Health != nil:
		b, err := canonicalJSON(m.Health)
		return payloadHealth, b, err
	}
	return payloadNone, nil, nil
}

// canonicalJSON returns v's JSON in the form decoder.payload accepts.
// json.Marshal writes a byte that is not valid UTF-8 as the escape
// \ufffd, which decodes to U+FFFD and re-encodes as that rune's raw bytes;
// one decode and encode reaches the form that re-encodes to itself.
func canonicalJSON[T any](v T) ([]byte, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	var again T
	if err := json.Unmarshal(b, &again); err != nil {
		return nil, err
	}
	return json.Marshal(again)
}

// readFrame decodes one frame into a *Request or *Response and returns
// the bytes consumed.
func readFrame(r io.Reader, v any) (int, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, err
	}
	n := int(binary.BigEndian.Uint32(hdr[:]))
	if n > maxFrame {
		return len(hdr), fmt.Errorf("%w: header declares %d bytes, limit %d", errFrameTooLarge, n, maxFrame)
	}
	body, err := readBody(r, n)
	if err != nil {
		return len(hdr) + len(body), err
	}
	return len(hdr) + n, decodeFrame(body, v)
}

// firstRead is the largest body readFrame allocates in full before any
// of it has arrived.
const firstRead = 16 << 10

// readBody reads an n-byte body. Up to firstRead bytes it costs one exact
// allocation; past that the buffer grows only as bytes arrive, so a header
// that promises maxFrame bytes and then sends ten does not cost 16 MiB.
func readBody(r io.Reader, n int) ([]byte, error) {
	if n <= firstRead {
		body := make([]byte, n)
		m, err := io.ReadFull(r, body)
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return body[:m], err
	}
	var buf bytes.Buffer
	buf.Grow(firstRead)
	_, err := io.CopyN(&buf, r, int64(n))
	if err == io.EOF {
		err = io.ErrUnexpectedEOF
	}
	return buf.Bytes(), err
}

// decodeFrame decodes a frame body into a *Request or *Response.
func decodeFrame(body []byte, v any) error {
	d := decoder{b: body}
	switch m := v.(type) {
	case *Request:
		*m = Request{
			ID:         d.uvarint(),
			Op:         Op(d.byte()),
			Session:    d.uvarint(),
			DeadlineNS: d.uvarint(),
			User:       d.string(),
			Password:   d.string(),
			Source:     d.string(),
		}
	case *Response:
		id := d.uvarint()
		status := d.byte()
		*m = Response{
			ID:      id,
			OK:      status&statusOK != 0,
			Status:  Status(status &^ statusOK),
			Session: d.uvarint(),
			Time:    d.uvarint(),
			Error:   d.string(),
			Result:  d.string(),
			Output:  d.string(),
		}
		if d.err == nil && m.Status > StatusDeadlineExceeded {
			d.err = fmt.Errorf("wire: unknown status %d", m.Status)
		}
		switch kind := d.byte(); kind {
		case payloadNone:
		case payloadStats:
			m.Stats = new(obs.Snapshot)
			d.payload(m.Stats)
		case payloadHealth:
			d.payload(&m.Health)
			if d.err == nil && m.Health == nil {
				d.err = errors.New("wire: null health payload")
			}
		default:
			if d.err == nil {
				d.err = fmt.Errorf("wire: unknown payload kind %d", kind)
			}
		}
	default:
		return fmt.Errorf("wire: cannot decode into %T", v)
	}
	if d.err == nil && len(d.b) > 0 {
		d.err = fmt.Errorf("wire: %d bytes past the end of the frame", len(d.b))
	}
	return d.err
}

// decoder reads a frame body field by field. The first error sticks: every
// later read returns a zero value.
type decoder struct {
	b   []byte
	err error
}

var errTruncated = errors.New("wire: frame truncated")

func (d *decoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b)
	switch {
	case n == 0:
		d.err = errTruncated
	case n < 0:
		d.err = errors.New("wire: varint overflows 64 bits")
	case n > 1 && d.b[n-1] == 0:
		d.err = errors.New("wire: varint not in its shortest form")
	}
	if d.err != nil {
		return 0
	}
	d.b = d.b[n:]
	return v
}

func (d *decoder) byte() byte {
	if d.err != nil {
		return 0
	}
	if len(d.b) == 0 {
		d.err = errTruncated
		return 0
	}
	c := d.b[0]
	d.b = d.b[1:]
	return c
}

// bytes reads a length-prefixed byte string without copying it.
func (d *decoder) bytes() []byte {
	n := d.uvarint()
	if d.err != nil {
		return nil
	}
	if n > uint64(len(d.b)) {
		d.err = fmt.Errorf("wire: string of %d bytes runs past the frame", n)
		return nil
	}
	s := d.b[:n]
	d.b = d.b[n:]
	return s
}

func (d *decoder) string() string { return string(d.bytes()) }

// payload decodes a JSON payload into v and requires it to be exactly
// what json.Marshal makes of the result.
func (d *decoder) payload(v any) {
	b := d.bytes()
	if d.err != nil {
		return
	}
	if err := json.Unmarshal(b, v); err != nil {
		d.err = fmt.Errorf("wire: payload: %w", err)
		return
	}
	if again, err := json.Marshal(v); err != nil || !bytes.Equal(again, b) {
		d.err = errors.New("wire: payload not in canonical form")
	}
}

// Config tunes a Server.
type Config struct {
	// IdleTimeout, when positive, is the longest a connection may sit
	// without sending a frame before the server drops it (logging its
	// sessions out). It also bounds each response-batch write, so a client
	// that stops reading cannot pin the connection's writer. Zero means no
	// deadline — a dead client then pins a goroutine and its sessions
	// until Close.
	IdleTimeout time.Duration

	// MaxInFlight bounds the frames one connection may have outstanding
	// (read but not yet response-flushed); the reader stops consuming
	// frames past it, pushing backpressure into the client's TCP window.
	// Zero means defaultMaxInFlight.
	MaxInFlight int

	// SessionQueue bounds each session's FIFO of waiting requests on a
	// connection; requests past it are shed immediately with
	// StatusOverloaded. Zero means MaxInFlight.
	SessionQueue int

	// MaxConcurrent bounds heavy operations (login, execute, commit)
	// running at once across all connections. Zero disables global
	// admission control unless QueueDepth is set, in which case it
	// defaults to twice GOMAXPROCS.
	MaxConcurrent int

	// QueueDepth bounds how many heavy operations may wait for an
	// execution slot before further arrivals are shed immediately with
	// StatusOverloaded. Zero disables global admission control unless
	// MaxConcurrent is set, in which case it defaults to 4×MaxConcurrent.
	QueueDepth int

	// QueueWait bounds how long an admitted-to-queue request waits for an
	// execution slot before it is shed with StatusOverloaded. Zero means
	// defaultQueueWait when admission control is on.
	QueueWait time.Duration

	// DefaultDeadline, when positive, bounds every request that does not
	// carry its own DeadlineNS. Zero means no server-side deadline.
	DefaultDeadline time.Duration
}

const (
	defaultMaxInFlight = 8
	defaultQueueWait   = 100 * time.Millisecond
)

// admissionOn reports whether global admission control is configured.
func (cfg Config) admissionOn() bool { return cfg.MaxConcurrent > 0 || cfg.QueueDepth > 0 }
