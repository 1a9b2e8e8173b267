//! The OOSM event model.
//!
//! §4.5: "An event model has been implemented for the OOSM, which allows
//! client programs to be notified of changes to property or relationship
//! values without the need to poll." Subscribers receive events over a
//! std `mpsc` channel (the paper's OLE-automation events become channel
//! messages here), so a client thread can block on
//! [`Subscription::recv`] or drain between steps. The PDME's own
//! knowledge-fusion pass does not subscribe: it fuses the reports its
//! ingest pass posts directly. An event is built only when at least one
//! subscription is open, so an unobserved model pays nothing for it.

use crate::model::{ObjectKind, Relation};
use crate::tables::Value;
use mpros_core::{ConditionReport, ObjectId};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;

/// A change notification from the OOSM.
#[derive(Debug, Clone, PartialEq)]
pub enum OosmEvent {
    /// A new object was created.
    ObjectCreated {
        /// The object.
        object: ObjectId,
        /// Its kind.
        kind: ObjectKind,
    },
    /// An object was deleted.
    ObjectDeleted {
        /// The object.
        object: ObjectId,
    },
    /// A property changed value.
    PropertyChanged {
        /// The object.
        object: ObjectId,
        /// Property name.
        property: String,
        /// New value.
        value: Value,
    },
    /// A relationship was added.
    RelationAdded {
        /// Source object.
        from: ObjectId,
        /// Relationship type.
        relation: Relation,
        /// Target object.
        to: ObjectId,
    },
    /// A failure-prediction report was posted. It carries the report
    /// itself, so a subscriber reads what was posted without decoding
    /// it back out of the store.
    ReportPosted {
        /// The posted report.
        report: Arc<ConditionReport>,
        /// The OOSM object holding it.
        object: ObjectId,
    },
}

/// A live subscription to OOSM events.
#[derive(Debug)]
pub struct Subscription {
    rx: Receiver<OosmEvent>,
}

impl Subscription {
    /// Drain all currently queued events.
    pub fn drain(&self) -> Vec<OosmEvent> {
        let mut out = Vec::new();
        while let Ok(e) = self.rx.try_recv() {
            out.push(e);
        }
        out
    }

    /// Block for the next event (a client on its own thread).
    pub fn recv(&self) -> Option<OosmEvent> {
        self.rx.recv().ok()
    }
}

/// The publisher side, owned by the OOSM.
#[derive(Debug, Default)]
pub struct EventBus {
    subscribers: Vec<Sender<OosmEvent>>,
}

impl EventBus {
    /// A bus with no subscribers.
    pub fn new() -> Self {
        Self::default()
    }

    /// Open a new subscription.
    pub fn subscribe(&mut self) -> Subscription {
        let (tx, rx) = channel();
        self.subscribers.push(tx);
        Subscription { rx }
    }

    /// Publish an event to every live subscriber; dropped subscribers
    /// are pruned. `event` builds the event and runs only when a
    /// subscription is open, so an unobserved write allocates nothing
    /// for it.
    pub fn publish(&mut self, event: impl FnOnce() -> OosmEvent) {
        if !self.subscribers.is_empty() {
            let event = event();
            self.subscribers.retain(|tx| tx.send(event.clone()).is_ok());
        }
    }

    /// Number of live subscribers.
    pub fn subscriber_count(&self) -> usize {
        self.subscribers.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpros_core::ObjectId;

    #[test]
    fn publish_reaches_all_subscribers() {
        let mut bus = EventBus::new();
        let a = bus.subscribe();
        let b = bus.subscribe();
        bus.publish(|| OosmEvent::ObjectDeleted {
            object: ObjectId::new(1),
        });
        assert_eq!(a.drain().len(), 1);
        assert_eq!(b.drain().len(), 1);
    }

    #[test]
    fn no_subscriber_builds_no_event() {
        let mut bus = EventBus::new();
        bus.publish(|| unreachable!("an event was built with no subscriber"));
        assert_eq!(bus.subscriber_count(), 0);
    }

    #[test]
    fn dropped_subscribers_are_pruned() {
        let mut bus = EventBus::new();
        let a = bus.subscribe();
        {
            let _b = bus.subscribe();
        } // dropped
        bus.publish(|| OosmEvent::ObjectDeleted {
            object: ObjectId::new(2),
        });
        assert_eq!(bus.subscriber_count(), 1);
        assert_eq!(a.drain().len(), 1);
    }

    #[test]
    fn events_queue_until_drained() {
        let mut bus = EventBus::new();
        let s = bus.subscribe();
        for i in 0..5 {
            bus.publish(|| OosmEvent::ObjectDeleted {
                object: ObjectId::new(i),
            });
        }
        let drained = s.drain();
        assert_eq!(drained.len(), 5);
        assert!(s.drain().is_empty(), "drain empties the queue");
    }

    #[test]
    fn recv_works_across_threads() {
        let mut bus = EventBus::new();
        let s = bus.subscribe();
        let handle = std::thread::spawn(move || s.recv());
        let report = mpros_core::ConditionReport::builder(
            mpros_core::MachineId::new(1),
            mpros_core::MachineCondition::MotorImbalance,
            0.5,
        )
        .build();
        bus.publish(|| OosmEvent::ReportPosted {
            report: Arc::new(report),
            object: ObjectId::new(3),
        });
        let got = handle.join().unwrap();
        assert!(matches!(got, Some(OosmEvent::ReportPosted { .. })));
    }
}
