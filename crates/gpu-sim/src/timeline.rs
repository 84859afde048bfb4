//! Pipelined event timeline.
//!
//! The heterogeneous sort (Section 5) overlaps three streams of work: PCIe
//! host-to-device transfers, on-GPU sorting, and PCIe device-to-host
//! transfers, with the CPU merging the returned runs afterwards.  The
//! [`Timeline`] is a tiny resource-constrained scheduler: each stream is a
//! *resource* that can execute one task at a time, each task has an earliest
//! start (its dependencies), and scheduling a task returns its realised
//! start/end times.  The makespan of all scheduled events is the simulated
//! end-to-end duration.

use crate::simtime::SimTime;
use serde::{Deserialize, Serialize};

/// Identifier of a resource registered with a [`Timeline`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ResourceId(usize);

/// A scheduled task occurrence.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TimelineEvent {
    /// Human-readable label (e.g. `"HtD chunk 2"`).
    pub label: String,
    /// Resource the event executed on.
    pub resource: ResourceId,
    /// Realised start time.
    pub start: SimTime,
    /// Realised end time.
    pub end: SimTime,
}

impl TimelineEvent {
    /// Event duration.
    pub fn duration(&self) -> SimTime {
        self.end - self.start
    }
}

#[derive(Debug, Clone, Serialize, Deserialize)]
struct Resource {
    name: String,
    busy_until: SimTime,
}

/// A resource-constrained event timeline.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Timeline {
    resources: Vec<Resource>,
    events: Vec<TimelineEvent>,
}

impl Timeline {
    /// Creates an empty timeline.
    pub fn new() -> Self {
        Timeline::default()
    }

    /// Registers a resource (a stream / execution engine) and returns its id.
    pub fn add_resource(&mut self, name: impl Into<String>) -> ResourceId {
        self.resources.push(Resource {
            name: name.into(),
            busy_until: SimTime::ZERO,
        });
        ResourceId(self.resources.len() - 1)
    }

    /// Name of a resource.
    pub fn resource_name(&self, id: ResourceId) -> &str {
        &self.resources[id.0].name
    }

    /// Schedules a task of `duration` on `resource`, starting no earlier
    /// than `earliest` and no earlier than the resource's availability.
    /// Returns the realised event.
    pub fn schedule(
        &mut self,
        label: impl Into<String>,
        resource: ResourceId,
        earliest: SimTime,
        duration: SimTime,
    ) -> TimelineEvent {
        let start = earliest.max(self.resources[resource.0].busy_until);
        let end = start + duration;
        self.resources[resource.0].busy_until = end;
        let event = TimelineEvent {
            label: label.into(),
            resource,
            start,
            end,
        };
        self.events.push(event.clone());
        event
    }

    /// Schedules a task that may only start once every dependency has
    /// finished (in addition to the resource being free).  `deps` are the
    /// end times of the prerequisite events; an empty slice means "no
    /// dependencies".  This is the primitive multi-device schedules use:
    /// a shard's sort depends on its upload, its download on its sort.
    pub fn schedule_after(
        &mut self,
        label: impl Into<String>,
        resource: ResourceId,
        deps: &[SimTime],
        duration: SimTime,
    ) -> TimelineEvent {
        let earliest = deps.iter().copied().fold(SimTime::ZERO, SimTime::max);
        self.schedule(label, resource, earliest, duration)
    }

    /// All scheduled events in scheduling order.
    pub fn events(&self) -> &[TimelineEvent] {
        &self.events
    }

    /// Events that executed on a specific resource.
    pub fn events_on(&self, id: ResourceId) -> impl Iterator<Item = &TimelineEvent> {
        self.events.iter().filter(move |e| e.resource == id)
    }

    /// The end time of the last finishing event (zero if nothing was
    /// scheduled).
    pub fn makespan(&self) -> SimTime {
        self.events
            .iter()
            .map(|e| e.end)
            .fold(SimTime::ZERO, SimTime::max)
    }

    /// Total busy time of a resource (sum of its event durations).
    pub fn busy_time(&self, id: ResourceId) -> SimTime {
        self.events_on(id).map(|e| e.duration()).sum()
    }

    /// Renders a compact textual Gantt-style summary (one line per event).
    pub fn render(&self) -> String {
        let mut out = String::new();
        for e in &self.events {
            out.push_str(&format!(
                "{:<18} {:<24} {:>10.3} ms -> {:>10.3} ms\n",
                self.resource_name(e.resource),
                e.label,
                e.start.millis(),
                e.end.millis()
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tasks_on_one_resource_serialise() {
        let mut tl = Timeline::new();
        let r = tl.add_resource("GPU");
        let a = tl.schedule("sort 0", r, SimTime::ZERO, SimTime::from_millis(10.0));
        let b = tl.schedule("sort 1", r, SimTime::ZERO, SimTime::from_millis(10.0));
        assert_eq!(a.start, SimTime::ZERO);
        assert_eq!(b.start, a.end);
        assert!((tl.makespan().millis() - 20.0).abs() < 1e-9);
    }

    #[test]
    fn tasks_on_different_resources_overlap() {
        let mut tl = Timeline::new();
        let htod = tl.add_resource("PCIe HtD");
        let gpu = tl.add_resource("GPU");
        let a = tl.schedule("HtD 0", htod, SimTime::ZERO, SimTime::from_millis(5.0));
        // The sort of chunk 0 depends on its transfer, but the transfer of
        // chunk 1 can overlap with it.
        let s = tl.schedule("sort 0", gpu, a.end, SimTime::from_millis(7.0));
        let b = tl.schedule("HtD 1", htod, SimTime::ZERO, SimTime::from_millis(5.0));
        assert_eq!(b.start, a.end);
        assert!(b.start < s.end);
        assert!((tl.makespan().millis() - 12.0).abs() < 1e-9);
    }

    #[test]
    fn dependencies_delay_start() {
        let mut tl = Timeline::new();
        let gpu = tl.add_resource("GPU");
        let e = tl.schedule(
            "late",
            gpu,
            SimTime::from_millis(100.0),
            SimTime::from_millis(1.0),
        );
        assert_eq!(e.start, SimTime::from_millis(100.0));
    }

    #[test]
    fn busy_time_and_events_on() {
        let mut tl = Timeline::new();
        let a = tl.add_resource("A");
        let b = tl.add_resource("B");
        tl.schedule("x", a, SimTime::ZERO, SimTime::from_millis(3.0));
        tl.schedule("y", b, SimTime::ZERO, SimTime::from_millis(4.0));
        tl.schedule("z", a, SimTime::ZERO, SimTime::from_millis(2.0));
        assert!((tl.busy_time(a).millis() - 5.0).abs() < 1e-9);
        assert_eq!(tl.events_on(a).count(), 2);
        assert_eq!(tl.events().len(), 3);
        assert_eq!(tl.resource_name(b), "B");
    }

    #[test]
    fn render_contains_labels() {
        let mut tl = Timeline::new();
        let a = tl.add_resource("PCIe DtH");
        tl.schedule("DtH chunk 3", a, SimTime::ZERO, SimTime::from_millis(1.0));
        let s = tl.render();
        assert!(s.contains("DtH chunk 3"));
        assert!(s.contains("PCIe DtH"));
    }

    #[test]
    fn empty_timeline_has_zero_makespan() {
        assert_eq!(Timeline::new().makespan(), SimTime::ZERO);
    }

    #[test]
    fn schedule_after_waits_for_all_dependencies() {
        let mut tl = Timeline::new();
        let htod = tl.add_resource("HtD");
        let gpu = tl.add_resource("GPU");
        let up_a = tl.schedule("up a", htod, SimTime::ZERO, SimTime::from_millis(4.0));
        let up_b = tl.schedule("up b", htod, SimTime::ZERO, SimTime::from_millis(4.0));
        // Sorting needs both uploads here; the later one gates the start.
        let sort = tl.schedule_after(
            "sort",
            gpu,
            &[up_a.end, up_b.end],
            SimTime::from_millis(2.0),
        );
        assert_eq!(sort.start, up_b.end);
        // No dependencies start as early as the resource allows.
        let free = tl.schedule_after("free", gpu, &[], SimTime::from_millis(1.0));
        assert_eq!(free.start, sort.end);
    }
}
