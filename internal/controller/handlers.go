package controller

import (
	"context"
	"fmt"

	"jiffy/internal/core"
	"jiffy/internal/proto"
	"jiffy/internal/rpc"
	"jiffy/internal/wire"
)

// handle is the controller's RPC dispatch table. The request context
// (span propagation, cancellation) is currently consumed by the rpc
// layer's dispatch instrumentation; controller-internal operations are
// lock-scoped and do not block on remote peers mid-request except via
// the server pool, which applies its own deadlines.
//
// Group methods (replication stream, role queries, promotion) dispatch
// on any member; everything else requires leadership and is answered
// with a NotLeaderError redirect on standbys. On the leader, a mutating
// request's response is withheld until the op-log reaches every live
// standby (repl.flush), so an acknowledged mutation survives failover.
func (c *Controller) handle(_ context.Context, _ *rpc.ServerConn, method uint16, payload []byte) ([]byte, error) {
	c.ops.Add(1)
	switch method {
	case proto.MethodCtrlReplicate:
		return serveGroup(payload, c.handleReplicate)

	case proto.MethodCtrlBootstrap:
		return serveGroup(payload, c.handleBootstrap)

	case proto.MethodCtrlRole:
		return rpc.EncodeMsg(c.Role())

	case proto.MethodCtrlPromote:
		return rpc.EncodeMsg(proto.CtrlPromoteResp{Gen: c.PromoteNow()})
	}

	if !c.leading.Load() {
		nl := c.notLeaderErr()
		return []byte(nl.Error()), nl
	}
	resp, err := c.dispatch(method, payload)
	if err != nil {
		return resp, err
	}
	// Withhold the ack until live standbys have the ops this request
	// emitted; a no-op when nothing was emitted or no group is set.
	if ferr := c.repl.flush(); ferr != nil {
		wire.PutBuf(resp)
		return []byte(ferr.Error()), ferr
	}
	return resp, nil
}

// serveGroup serves a replication-group method. A refusal carries its
// error text as the body, so a NotLeaderError reaches the deposed
// sender with its leader hint and generation.
func serveGroup[Req, Resp any](payload []byte, fn func(Req) (Resp, error)) ([]byte, error) {
	out, err := rpc.ServeMsg(payload, fn)
	if err != nil {
		return []byte(err.Error()), err
	}
	return out, nil
}

func (c *Controller) dispatch(method uint16, payload []byte) ([]byte, error) {
	switch method {
	case proto.MethodRegisterJob:
		return rpc.ServeMsg(payload, func(req proto.RegisterJobReq) (proto.RegisterJobResp, error) {
			return proto.RegisterJobResp{}, c.RegisterJob(req.Job)
		})
	case proto.MethodDeregisterJob:
		return rpc.ServeMsg(payload, func(req proto.DeregisterJobReq) (proto.DeregisterJobResp, error) {
			return proto.DeregisterJobResp{}, c.DeregisterJob(req.Job)
		})
	case proto.MethodCreatePrefix:
		return rpc.ServeMsg(payload, c.CreatePrefix)
	case proto.MethodCreateHierarchy:
		return rpc.ServeMsg(payload, func(req proto.CreateHierarchyReq) (proto.CreateHierarchyResp, error) {
			return proto.CreateHierarchyResp{}, c.CreateHierarchy(req)
		})
	case proto.MethodRemovePrefix:
		return rpc.ServeMsg(payload, func(req proto.RemovePrefixReq) (proto.RemovePrefixResp, error) {
			return proto.RemovePrefixResp{}, c.RemovePrefix(req.Path)
		})
	case proto.MethodRenewLease:
		return rpc.ServeMsg(payload, func(req proto.RenewLeaseReq) (proto.RenewLeaseResp, error) {
			n, err := c.RenewLease(req.Paths)
			return proto.RenewLeaseResp{Renewed: n}, err
		})
	case proto.MethodLeaseInfo:
		return rpc.ServeMsg(payload, func(req proto.LeaseInfoReq) (proto.LeaseInfoResp, error) {
			return c.LeaseInfo(req.Path)
		})
	case proto.MethodOpen:
		return rpc.ServeMsg(payload, func(req proto.OpenReq) (proto.OpenResp, error) {
			return c.Open(req.Path)
		})
	case proto.MethodFlushPrefix:
		return rpc.ServeMsg(payload, func(req proto.FlushPrefixReq) (proto.FlushPrefixResp, error) {
			n, err := c.FlushPrefix(req.Path, req.ExternalPath)
			return proto.FlushPrefixResp{Blocks: n}, err
		})
	case proto.MethodLoadPrefix:
		return rpc.ServeMsg(payload, func(req proto.LoadPrefixReq) (proto.LoadPrefixResp, error) {
			return c.LoadPrefix(req.Path, req.ExternalPath)
		})
	case proto.MethodRegisterServer:
		return rpc.ServeMsg(payload, func(req proto.RegisterServerReq) (proto.RegisterServerResp, error) {
			first, err := c.RegisterServer(req.Addr, req.NumBlocks)
			return proto.RegisterServerResp{FirstID: first}, err
		})
	case proto.MethodHeartbeat:
		return rpc.ServeMsg(payload, func(req proto.HeartbeatReq) (proto.HeartbeatResp, error) {
			epoch, err := c.Heartbeat(req.Addr)
			return proto.HeartbeatResp{Epoch: epoch}, err
		})
	case proto.MethodReportFailure:
		return rpc.ServeMsg(payload, func(req proto.ReportFailureReq) (proto.ReportFailureResp, error) {
			return proto.ReportFailureResp{}, c.ReportFailure(req)
		})
	case proto.MethodReportTier:
		return rpc.ServeMsg(payload, c.ReportTier)
	case proto.MethodDrainServer:
		return rpc.ServeMsg(payload, func(req proto.DrainServerReq) (proto.DrainServerResp, error) {
			migrated, err := c.DrainServer(req.Addr)
			return proto.DrainServerResp{Migrated: migrated}, err
		})
	case proto.MethodScaleUp:
		return rpc.ServeMsg(payload, c.ScaleUp)
	case proto.MethodScaleDown:
		return rpc.ServeMsg(payload, c.ScaleDown)
	case proto.MethodSaveState:
		return rpc.ServeMsg(payload, func(req proto.SaveStateReq) (proto.SaveStateResp, error) {
			return proto.SaveStateResp{}, c.SaveState(req.Key)
		})
	case proto.MethodControllerStats:
		return rpc.EncodeMsg(c.Stats())
	case proto.MethodSetQuota:
		return rpc.ServeMsg(payload, func(req proto.SetQuotaReq) (proto.SetQuotaResp, error) {
			return proto.SetQuotaResp{}, c.SetQuota(req.Path, req.Quota)
		})
	case proto.MethodListPrefixes:
		return rpc.ServeMsg(payload, func(req proto.ListPrefixesReq) (proto.ListPrefixesResp, error) {
			return c.ListPrefixes(req.Job)
		})
	default:
		return nil, fmt.Errorf("controller: unknown method %#x: %w", method, core.ErrNotFound)
	}
}
