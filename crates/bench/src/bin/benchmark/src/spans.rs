//! The benchmark's own span recorder.
//!
//! Spans are recorded from these files, around each call into a layer of
//! the repository; nothing inside the crates is instrumented (that is
//! ROADMAP item 3). They are kept in memory and written once, when the
//! run ends. With the recorder off a scope is one `Instant` pair and a
//! branch, which is what the end-to-end runs pay.

use std::time::Instant;

#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span (the span that caused this one).
    pub parent: Option<usize>,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Spans {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    pub fn new(on: bool) -> Spans {
        Spans { on, origin: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }

    /// Run `f` inside a span called `name`; returns its value and the
    /// seconds it took. The seconds are measured whether or not spans are
    /// being recorded, so both kinds of run time the same code.
    pub fn scope<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Spans) -> T) -> (T, f64) {
        let t0 = Instant::now();
        let id = self.on.then(|| {
            let start_ns = t0.duration_since(self.origin).as_nanos() as u64;
            self.spans.push(Span {
                name,
                start_ns,
                end_ns: start_ns,
                parent: self.open.last().copied(),
            });
            self.open.push(self.spans.len() - 1);
            self.spans.len() - 1
        });
        let out = f(self);
        let took = t0.elapsed();
        if let Some(id) = id {
            self.spans[id].end_ns = self.spans[id].start_ns + took.as_nanos() as u64;
            self.open.pop();
        }
        (out, took.as_secs_f64())
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Seconds covered by every span called `name`.
    pub fn total_s(&self, name: &str) -> f64 {
        self.spans.iter().filter(|s| s.name == name).map(Span::dur_ns).sum::<u64>() as f64 / 1e9
    }

    /// A span's duration minus the part its direct children cover.
    pub fn self_ns(&self, id: usize) -> u64 {
        let children: u64 =
            self.spans.iter().filter(|s| s.parent == Some(id)).map(Span::dur_ns).sum();
        self.spans[id].dur_ns().saturating_sub(children)
    }

    /// Share of the first span called `name` that none of its children
    /// cover (0 when there is no such span).
    pub fn self_share(&self, name: &str) -> f64 {
        match self.spans.iter().position(|s| s.name == name) {
            Some(id) if self.spans[id].dur_ns() > 0 => {
                self.self_ns(id) as f64 / self.spans[id].dur_ns() as f64
            }
            _ => 0.0,
        }
    }

    /// The spans as a JSON array, each tagged with the workload they
    /// belong to (the identifier spans of one run share).
    pub fn to_json(&self, workload: &str) -> String {
        let mut out = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "  {{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
                 \"self_ns\": {}, \"parent\": {parent}, \"workload\": \"{workload}\"}}{}\n",
                s.name,
                s.start_ns,
                s.end_ns,
                self.self_ns(i),
                if i + 1 < self.spans.len() { "," } else { "" }
            ));
        }
        out.push(']');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fixed(spans: Vec<Span>) -> Spans {
        Spans { on: true, origin: Instant::now(), spans, open: Vec::new() }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let s = fixed(vec![
            Span { name: "setup", start_ns: 0, end_ns: 100, parent: None },
            Span { name: "a", start_ns: 0, end_ns: 60, parent: Some(0) },
            Span { name: "a.inner", start_ns: 10, end_ns: 50, parent: Some(1) },
            Span { name: "b", start_ns: 60, end_ns: 95, parent: Some(0) },
        ]);
        assert_eq!(s.self_ns(0), 5);
        assert_eq!(s.self_ns(1), 20);
        assert_eq!(s.self_ns(2), 40);
        assert!((s.self_share("setup") - 0.05).abs() < 1e-12);
        assert_eq!(s.self_share("absent"), 0.0);
    }

    #[test]
    fn scopes_nest_and_record_only_when_on() {
        let mut on = Spans::new(true);
        let (v, secs) = on.scope("outer", |s| s.scope("inner", |_| 7).0);
        assert_eq!(v, 7);
        assert!(secs >= 0.0);
        assert_eq!(on.len(), 2);
        assert_eq!(on.spans[1].parent, Some(0));
        assert!(on.spans[0].end_ns >= on.spans[1].end_ns);
        assert!(on.to_json("w").contains("\"name\": \"inner\""));

        let mut off = Spans::new(false);
        off.scope("outer", |s| s.scope("inner", |_| ()));
        assert_eq!(off.len(), 0);
    }
}
