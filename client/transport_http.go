package client

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"sync"

	"shbf/internal/httpjson"
	"shbf/internal/wire"
)

// httpTransport maps the wire ops onto the daemon's /v2 HTTP/JSON API.
// Keys travel base64-encoded (element IDs are arbitrary bytes), which
// is exactly the decode overhead the binary transport exists to avoid
// — this transport is for convenience and ops tooling, not the serving
// hot path.
//
// The eight data-plane ops go through internal/httpjson. Request
// bodies are appended byte-identical to json.Marshal of the API's
// shapes, and the daemon's canonical responses are scanned in one pass
// into a pooled buffer; any other response falls back to
// json.Unmarshal. Neither direction allocates per key.
type httpTransport struct {
	base string
	hc   *http.Client
}

func newHTTPTransport(base string, hc *http.Client) *httpTransport {
	if hc == nil {
		hc = &http.Client{}
	}
	return &httpTransport{base: strings.TrimSuffix(base, "/"), hc: hc}
}

func (t *httpTransport) close() error {
	t.hc.CloseIdleConnections()
	return nil
}

// nsPath builds /v2/namespaces/{ns}{suffix} with the namespace
// URL-escaped.
func (t *httpTransport) nsPath(ns, suffix string) string {
	if ns == "" {
		ns = "default"
	}
	return t.base + "/v2/namespaces/" + url.PathEscape(ns) + suffix
}

func (t *httpTransport) roundTrip(ctx context.Context, req *wire.Request, resp *wire.Response) error {
	*resp = wire.Response{Status: wire.StatusOK, Op: req.Op}
	switch req.Op {
	case wire.OpPing:
		return t.get(ctx, req, resp, t.base+"/healthz", nil)

	case wire.OpStats:
		var raw json.RawMessage
		if err := t.get(ctx, req, resp, t.nsPath(req.Namespace, "/stats"), &raw); err != nil || resp.Status != wire.StatusOK {
			return err
		}
		resp.Blob = raw
		return nil

	case wire.OpNamespaceList:
		var raw json.RawMessage
		if err := t.get(ctx, req, resp, t.base+"/v2/namespaces", &raw); err != nil || resp.Status != wire.StatusOK {
			return err
		}
		resp.Blob = raw
		return nil

	case wire.OpNamespaceCreate:
		return t.post(ctx, req, resp, t.base+"/v2/namespaces", json.RawMessage(req.Blob), nil)

	case wire.OpNamespaceDelete:
		return t.doJSON(ctx, req, resp, http.MethodDelete, t.nsPath(req.Namespace, ""), nil, nil)

	case wire.OpRotate:
		var body struct {
			Rotated []string `json:"rotated"`
			Epoch   uint64   `json:"epoch"`
		}
		if err := t.post(ctx, req, resp, t.nsPath(req.Namespace, "/rotate"), struct{}{}, &body); err != nil || resp.Status != wire.StatusOK {
			return err
		}
		resp.Rotated, resp.Epoch = body.Rotated, body.Epoch
		return nil

	case wire.OpMembershipAdd:
		return t.dataPlane(ctx, req, resp, "/membership/add", httpjson.AppendKeysRequest(nil, req.Keys))

	case wire.OpMembershipContains:
		return t.dataPlane(ctx, req, resp, "/membership/contains", httpjson.AppendKeysRequest(nil, req.Keys))

	case wire.OpAssociationAdd:
		return t.dataPlane(ctx, req, resp, "/association/add", httpjson.AppendSetRequest(nil, int(req.Set), req.Keys))

	case wire.OpAssociationRemove:
		return t.dataPlane(ctx, req, resp, "/association/remove", httpjson.AppendSetRequest(nil, int(req.Set), req.Keys))

	case wire.OpAssociationQuery:
		return t.dataPlane(ctx, req, resp, "/association/classify", httpjson.AppendKeysRequest(nil, req.Keys))

	case wire.OpMultiplicityAdd:
		return t.dataPlane(ctx, req, resp, "/multiplicity/add", httpjson.AppendCountedRequest(nil, req.Keys, req.Counts))

	case wire.OpMultiplicityRemove:
		return t.dataPlane(ctx, req, resp, "/multiplicity/remove", httpjson.AppendCountedRequest(nil, req.Keys, req.Counts))

	case wire.OpMultiplicityCount:
		return t.dataPlane(ctx, req, resp, "/multiplicity/count", httpjson.AppendKeysRequest(nil, req.Keys))

	case wire.OpMetrics:
		// The scrape is Prometheus text, not JSON.
		data, err := t.doRaw(ctx, req, resp, http.MethodGet, t.base+"/metrics", "", nil, nil)
		if err != nil || resp.Status != wire.StatusOK {
			return err
		}
		resp.Blob = data
		return nil

	case wire.OpClusterMap:
		var raw json.RawMessage
		if err := t.get(ctx, req, resp, t.base+"/v2/cluster", &raw); err != nil || resp.Status != wire.StatusOK {
			return err
		}
		resp.Blob = raw
		return nil

	case wire.OpMembershipDump:
		// The envelope endpoint serves raw ShBE bytes, not JSON.
		data, err := t.doRaw(ctx, req, resp, http.MethodGet, t.nsPath(req.Namespace, "/membership/envelope"), "", nil, nil)
		if err != nil || resp.Status != wire.StatusOK {
			return err
		}
		resp.Blob = data
		return nil

	case wire.OpFreeze:
		// The freeze endpoint serves raw ShBZ bytes, not JSON.
		data, err := t.doRaw(ctx, req, resp, http.MethodPost, t.nsPath(req.Namespace, "/freeze"), "", nil, nil)
		if err != nil || resp.Status != wire.StatusOK {
			return err
		}
		resp.Blob = data
		return nil

	case wire.OpMembershipMerge:
		// The merge body is a raw ShBE envelope; the reply is JSON.
		data, err := t.doRaw(ctx, req, resp, http.MethodPost, t.nsPath(req.Namespace, "/merge"), "application/octet-stream", req.Blob, nil)
		if err != nil || resp.Status != wire.StatusOK {
			return err
		}
		var body struct {
			MergedN uint64 `json:"merged_n"`
		}
		if err := json.Unmarshal(data, &body); err != nil {
			return fmt.Errorf("client: decoding merge response: %w", err)
		}
		resp.Applied = body.MergedN
		return nil

	case wire.OpMultiplicityDump:
		// The envelope endpoint serves raw ShBE bytes, not JSON.
		data, err := t.doRaw(ctx, req, resp, http.MethodGet, t.nsPath(req.Namespace, "/multiplicity/envelope"), "", nil, nil)
		if err != nil || resp.Status != wire.StatusOK {
			return err
		}
		resp.Blob = data
		return nil

	case wire.OpMultiplicityMerge:
		// The merge body is a raw ShBE envelope; the reply is JSON.
		data, err := t.doRaw(ctx, req, resp, http.MethodPost, t.nsPath(req.Namespace, "/multiplicity/merge"), "application/octet-stream", req.Blob, nil)
		if err != nil || resp.Status != wire.StatusOK {
			return err
		}
		var body struct {
			MergedN uint64 `json:"merged_n"`
		}
		if err := json.Unmarshal(data, &body); err != nil {
			return fmt.Errorf("client: decoding merge response: %w", err)
		}
		resp.Applied = body.MergedN
		return nil
	}
	return fmt.Errorf("client: op %s has no HTTP mapping", wire.OpName(req.Op))
}

// respBufs pools the data plane's response buffers; one that grew
// past maxPooledResp is left to the GC.
var respBufs = sync.Pool{New: func() any { return new([]byte) }}

const maxPooledResp = 1 << 20

// dataPlane runs one data-plane exchange: body is the request the
// httpjson encoders rendered, and the response is read into a pooled
// buffer and decoded into resp.
func (t *httpTransport) dataPlane(ctx context.Context, req *wire.Request, resp *wire.Response, suffix string, body []byte) error {
	buf := respBufs.Get().(*[]byte)
	data, err := t.doRaw(ctx, req, resp, http.MethodPost, t.nsPath(req.Namespace, suffix), "application/json", body, (*buf)[:0])
	if err == nil && resp.Status == wire.StatusOK {
		err = decodeDataPlane(req.Op, data, resp)
	}
	switch {
	case cap(data) > maxPooledResp:
		*buf = nil
	case data != nil:
		*buf = data[:0]
	}
	respBufs.Put(buf)
	return err
}

// decodeDataPlane fills resp from a data-plane success body: the
// httpjson scanners take the daemon's canonical bytes, and
// json.Unmarshal, the reference, takes anything else.
func decodeDataPlane(op byte, data []byte, resp *wire.Response) error {
	var ok bool
	switch op {
	case wire.OpMembershipAdd:
		if resp.Applied, ok = httpjson.ScanTally(data, "added"); ok {
			return nil
		}
		var body struct {
			Added uint64 `json:"added"`
		}
		if err := json.Unmarshal(data, &body); err != nil {
			return decodeErr(op, err)
		}
		resp.Applied = body.Added

	case wire.OpMembershipContains:
		if resp.Bools, ok = httpjson.ScanResults(data); ok {
			return nil
		}
		var body struct {
			Results []bool `json:"results"`
		}
		if err := json.Unmarshal(data, &body); err != nil {
			return decodeErr(op, err)
		}
		resp.Bools = body.Results

	case wire.OpAssociationQuery:
		if resp.Regions, ok = httpjson.ScanMasks(data); ok {
			return nil
		}
		var body struct {
			Results []struct {
				Mask *uint8 `json:"mask"`
			} `json:"results"`
		}
		if err := json.Unmarshal(data, &body); err != nil {
			return decodeErr(op, err)
		}
		resp.Regions = make([]byte, len(body.Results))
		for i, r := range body.Results {
			if r.Mask == nil {
				return fmt.Errorf("client: classify result %d has no mask (daemon too old for the v2 API?)", i)
			}
			resp.Regions[i] = *r.Mask
		}

	case wire.OpMultiplicityCount:
		if resp.Counts, ok = httpjson.ScanCounts(data); ok {
			return nil
		}
		var body struct {
			Counts []int `json:"counts"`
		}
		if err := json.Unmarshal(data, &body); err != nil {
			return decodeErr(op, err)
		}
		resp.Counts = body.Counts

	default: // association and multiplicity writes
		if resp.Applied, ok = httpjson.ScanTally(data, "applied"); ok {
			return nil
		}
		var body struct {
			Applied uint64 `json:"applied"`
		}
		if err := json.Unmarshal(data, &body); err != nil {
			return decodeErr(op, err)
		}
		resp.Applied = body.Applied
	}
	return nil
}

func decodeErr(op byte, err error) error {
	return fmt.Errorf("client: decoding %s response: %w", wire.OpName(op), err)
}

func (t *httpTransport) get(ctx context.Context, req *wire.Request, resp *wire.Response, url string, out any) error {
	return t.doJSON(ctx, req, resp, http.MethodGet, url, nil, out)
}

func (t *httpTransport) post(ctx context.Context, req *wire.Request, resp *wire.Response, url string, payload, out any) error {
	return t.doJSON(ctx, req, resp, http.MethodPost, url, payload, out)
}

// doJSON runs one JSON HTTP exchange over doRaw, decoding the success
// body into out.
func (t *httpTransport) doJSON(ctx context.Context, req *wire.Request, resp *wire.Response, method, url string, payload, out any) error {
	var body []byte
	contentType := ""
	if payload != nil {
		b, err := json.Marshal(payload)
		if err != nil {
			return fmt.Errorf("client: encoding %s request: %w", wire.OpName(req.Op), err)
		}
		body, contentType = b, "application/json"
	}
	data, err := t.doRaw(ctx, req, resp, method, url, contentType, body, nil)
	if err != nil || resp.Status != wire.StatusOK {
		return err
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			return decodeErr(req.Op, err)
		}
	}
	return nil
}

// doRaw runs one HTTP exchange with an arbitrary request body,
// appending the response body to buf (nil for a fresh one), and maps
// HTTP failure statuses onto the wire status codes so both transports
// report identically.
func (t *httpTransport) doRaw(ctx context.Context, req *wire.Request, resp *wire.Response, method, url, contentType string, body, buf []byte) ([]byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	hreq, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return nil, err
	}
	if contentType != "" {
		hreq.Header.Set("Content-Type", contentType)
	}
	hresp, err := t.hc.Do(hreq)
	if err != nil {
		return nil, fmt.Errorf("client: %s: %w", wire.OpName(req.Op), err)
	}
	defer hresp.Body.Close()
	data, err := httpjson.ReadAll(buf, io.LimitReader(hresp.Body, wire.MaxFrame))
	if err != nil {
		return data, fmt.Errorf("client: reading %s response: %w", wire.OpName(req.Op), err)
	}
	if hresp.StatusCode >= 400 {
		var e struct {
			Error   string `json:"error"`
			Applied uint64 `json:"applied"`
		}
		if json.Unmarshal(data, &e) != nil || e.Error == "" {
			e.Error = fmt.Sprintf("HTTP %d: %s", hresp.StatusCode, bytes.TrimSpace(data))
		}
		resp.Status = httpStatusToWire(hresp.StatusCode)
		resp.Msg = e.Error
		resp.Applied = e.Applied
		return data[:0], nil
	}
	return data, nil
}

// httpStatusToWire maps an HTTP failure status onto the wire codes.
func httpStatusToWire(status int) byte {
	switch status {
	case http.StatusBadRequest:
		return wire.StatusBadRequest
	case http.StatusNotFound:
		return wire.StatusNotFound
	case http.StatusConflict:
		return wire.StatusConflict
	case http.StatusTooManyRequests:
		return wire.StatusOverloaded
	}
	return wire.StatusInternal
}
