//! Sequential reference model for the batch service.
//!
//! [`SequentialModel`] executes *successful* requests one at a time
//! against a plain [`NetDb`] — no waves, no threads, no frozen searches —
//! with the per-net search policy the service uses
//! ([`jroute::parallel::route_net`]: every terminal checked, then one
//! `steiner::grow` call in the net's region and, on a miss, one over
//! the device). Every service batch is a
//! serialization in `(priority, submission)` order at any worker count,
//! so replaying a batch's log through the model must reproduce the
//! service's net database bit-for-bit: same nets, same `NetId`s, same
//! segment census. What the model checks is the service's concurrency:
//! that wave searches against frozen state, the staleness rule and the
//! ordered commit add up to the one-at-a-time result. The service stress
//! tests assert exactly that.
//!
//! `NetId` equality holds because the model creates nets in the same
//! order the service's commit loop does, and removals never touch the id
//! counter.

use crate::request::{RequestId, RequestKind};
use jroute::maze::{MazeConfig, MazeScratch};
use jroute::parallel::{apply_net, route_net};
use jroute::pathfinder::NetSpec;
use jroute::{NetDb, NetId, Recorder};
use std::collections::HashMap;
use virtex::Device;

/// The single-threaded replay executor.
#[derive(Debug)]
pub struct SequentialModel<'d> {
    dev: &'d Device,
    db: NetDb,
    /// Nets each committed request produced, for victim resolution.
    committed: HashMap<RequestId, Vec<NetId>>,
    maze: MazeConfig,
    scratch: MazeScratch,
}

impl<'d> SequentialModel<'d> {
    /// Empty model over one device. Use the same `MazeConfig` as the
    /// service under test, or the searches will diverge.
    pub fn new(dev: &'d Device, maze: MazeConfig) -> Self {
        SequentialModel {
            dev,
            db: NetDb::new(dev.seg_space()),
            committed: HashMap::new(),
            maze,
            scratch: MazeScratch::new(dev),
        }
    }

    /// The model's net database, for census comparison.
    pub fn db(&self) -> &NetDb {
        &self.db
    }

    /// Nets a committed request produced (for victim cross-checks).
    pub fn nets_of(&self, id: RequestId) -> Option<&[NetId]> {
        self.committed.get(&id).map(|v| v.as_slice())
    }

    /// Apply one request the service reported as successful, identified
    /// by its id and kind (from the submitter's own records and the
    /// batch log).
    ///
    /// Panics if the request cannot be applied here: the service already
    /// committed it at this point of the serialization, so any failure
    /// is a real divergence between the service and the model.
    pub fn apply(&mut self, req: RequestId, kind: &RequestKind) {
        match kind {
            RequestKind::Route(spec) => {
                let id = self.route(spec);
                self.committed.insert(req, vec![id]);
            }
            RequestKind::Unroute(target) => self.remove(*target),
            RequestKind::Replace { remove, add } => {
                // Removals precede the replacement routes, which may
                // reuse the victims' segments; each replacement routes
                // around the ones before it.
                for &target in remove {
                    self.remove(target);
                }
                let ids: Vec<NetId> = add.iter().map(|spec| self.route(spec)).collect();
                self.committed.insert(req, ids);
            }
        }
    }

    /// Tear down every net of committed request `target`.
    fn remove(&mut self, target: RequestId) {
        let nets = self
            .committed
            .remove(&target)
            .expect("model: victim was never committed");
        for id in nets {
            self.db.remove_net(id).expect("model: victim net vanished");
        }
    }

    /// Route one net with `NetDb` occupancy as the blocked set.
    fn route(&mut self, spec: &NetSpec) -> NetId {
        let db = &self.db;
        let routed = route_net(
            self.dev,
            spec,
            &self.maze,
            |seg| db.is_used(seg),
            &mut self.scratch,
            &Recorder::disabled(),
        );
        let net = routed
            .net
            .expect("model: search failed where the service succeeded");
        apply_net(self.dev, &mut self.db, &net).expect("model: contention on a searched path")
    }
}
