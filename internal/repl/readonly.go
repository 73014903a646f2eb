package repl

import (
	"context"
	"fmt"

	"github.com/datacase/datacase/internal/api"
)

// readOnly is the read replica's client: every mutation fails with
// api.ErrReadOnlyReplica while reads go to the client `reads` resolves
// per call. The sentinel survives the wire (CodeReadOnly), so a remote
// caller of a served replica sees the same errors.Is identity an
// in-process one does.
type readOnly struct {
	// reads resolves the client a read is served from: a fixed one
	// (ReadOnly), or the replica's current generation (Replica.Client),
	// which keeps the one client handed out valid across resyncs.
	reads func() api.Client
	// close is the inner client's Close; a no-op for Replica.Client,
	// whose lifecycle belongs to Replica.Close.
	close func() error
}

// ReadOnly wraps a Client so that every mutation fails with
// api.ErrReadOnlyReplica while reads pass through.
func ReadOnly(inner api.Client) api.Client {
	return readOnly{reads: func() api.Client { return inner }, close: inner.Close}
}

func roErr(op string) error { return fmt.Errorf("%w: %s", api.ErrReadOnlyReplica, op) }

func (c readOnly) Create(context.Context, api.CreateRequest) (api.CreateResponse, error) {
	return api.CreateResponse{}, roErr("create")
}

func (c readOnly) CreateBatch(context.Context, api.CreateBatchRequest) (api.CreateBatchResponse, error) {
	return api.CreateBatchResponse{}, roErr("create-batch")
}

func (c readOnly) UpdateData(context.Context, api.UpdateDataRequest) (api.UpdateDataResponse, error) {
	return api.UpdateDataResponse{}, roErr("update-data")
}

func (c readOnly) DeleteData(context.Context, api.DeleteDataRequest) (api.DeleteDataResponse, error) {
	return api.DeleteDataResponse{}, roErr("delete-data")
}

func (c readOnly) UpdateMeta(context.Context, api.UpdateMetaRequest) (api.UpdateMetaResponse, error) {
	return api.UpdateMetaResponse{}, roErr("update-meta")
}

func (c readOnly) EraseSubject(context.Context, api.EraseSubjectRequest) (api.EraseSubjectResponse, error) {
	return api.EraseSubjectResponse{}, roErr("erase-subject")
}

func (c readOnly) Revoke(context.Context, api.RevokeRequest) (api.RevokeResponse, error) {
	return api.RevokeResponse{}, roErr("revoke")
}

func (c readOnly) ReadData(ctx context.Context, req api.ReadDataRequest) (api.ReadDataResponse, error) {
	return c.reads().ReadData(ctx, req)
}

func (c readOnly) ReadMeta(ctx context.Context, req api.ReadMetaRequest) (api.ReadMetaResponse, error) {
	return c.reads().ReadMeta(ctx, req)
}

func (c readOnly) ReadByMeta(ctx context.Context, req api.ReadByMetaRequest) (api.ReadByMetaResponse, error) {
	return c.reads().ReadByMeta(ctx, req)
}

func (c readOnly) SubjectAccess(ctx context.Context, req api.SubjectAccessRequest) (api.SubjectAccessResponse, error) {
	return c.reads().SubjectAccess(ctx, req)
}

func (c readOnly) Audit(ctx context.Context, req api.AuditRequest) (api.AuditResponse, error) {
	return c.reads().Audit(ctx, req)
}

func (c readOnly) Close() error { return c.close() }
