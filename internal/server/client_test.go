package server

import (
	"context"
	"net/http"
	"net/http/httptrace"
	"testing"
)

// TestWireClientReusesConnection runs 20 small threshold queries one after
// another against one trassd and checks that every call after the first
// reuses the first call's connection: QueryStream reads each reply to its
// end, so the transport keeps the connection.
func TestWireClientReusesConnection(t *testing.T) {
	db, data := openLoadedDB(t)
	_, cl := startServer(t, db, Config{})
	tr := &http.Transport{}
	defer tr.CloseIdleConnections()
	cl.HTTP = &http.Client{Transport: tr}

	for i := 0; i < 20; i++ {
		var reused, got bool
		ctx := httptrace.WithClientTrace(context.Background(), &httptrace.ClientTrace{
			GotConn: func(info httptrace.GotConnInfo) { got, reused = true, info.Reused },
		})
		q := data[i*7]
		if _, err := cl.QueryStream(ctx, QueryRequest{Kind: KindThreshold, QueryID: q.ID, Eps: 1e-6}, func(WireMatch) error { return nil }); err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		if !got {
			t.Fatalf("query %d: the trace saw no connection", i)
		}
		if i > 0 && !reused {
			t.Errorf("query %d dialled a new connection", i)
		}
	}
}
