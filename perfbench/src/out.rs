//! Minimal JSON rendering for the result lines.

/// A JSON object under construction; values are stored rendered.
#[derive(Debug, Default, Clone)]
pub struct Obj(Vec<(String, String)>);

pub fn num(v: f64) -> String {
    // Every figure the benchmark prints is finite; a non-finite one would
    // be a bug in a ratio, and JSON cannot carry it.
    assert!(v.is_finite(), "non-finite figure {v}");
    format!("{v}")
}

pub fn string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

impl Obj {
    pub fn new() -> Obj {
        Obj::default()
    }

    pub fn raw(mut self, k: &str, v: String) -> Obj {
        self.0.push((k.to_string(), v));
        self
    }

    pub fn num(self, k: &str, v: f64) -> Obj {
        self.raw(k, num(v))
    }

    pub fn int(self, k: &str, v: u64) -> Obj {
        self.raw(k, v.to_string())
    }

    pub fn str(self, k: &str, v: &str) -> Obj {
        self.raw(k, string(v))
    }

    pub fn bool(self, k: &str, v: bool) -> Obj {
        self.raw(k, v.to_string())
    }

    pub fn obj(self, k: &str, v: Obj) -> Obj {
        self.raw(k, v.render())
    }

    pub fn render(&self) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|(k, v)| format!("{}: {v}", string(k)))
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

pub fn array(items: impl IntoIterator<Item = String>) -> String {
    format!("[{}]", items.into_iter().collect::<Vec<_>>().join(", "))
}
