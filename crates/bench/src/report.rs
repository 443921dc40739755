//! Typed experiment tables: an experiment writes its numbers down once,
//! as typed cells, and they render two ways — aligned text for stdout
//! ([`Table::render`]) and one JSON object for the `BENCH_*.json`
//! artifacts ([`Table::json`]).

use std::fmt::Write as _;

use unintt_gpu_sim::SimTime;

/// What a column holds and how its cells print. A column has one print
/// precision: the text and JSON forms of a number show the same digits,
/// except that simulated times and byte counts take adaptive units in
/// text.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Free text.
    Label,
    /// An integer.
    Count,
    /// `true` / `false`.
    Bool,
    /// Simulated nanoseconds: [`fmt_ns`] in text, this many decimals in
    /// JSON.
    Ns(usize),
    /// A byte count: [`fmt_bytes`] in text, the integer in JSON.
    Bytes,
    /// A plain number at this many decimals; the text form appends the
    /// unit (`"x"`, `"%"`, `" NTT/s"`).
    Num(usize, &'static str),
    /// A plain number in scientific notation at this many decimals.
    Sci(usize),
}

/// One typed cell.
#[derive(Clone, Debug, PartialEq)]
pub enum Cell {
    /// Text, for a [`Kind::Label`] column.
    Label(String),
    /// An integer, for a [`Kind::Count`] or [`Kind::Bytes`] column.
    Int(u64),
    /// A [`Kind::Bool`] cell.
    Bool(bool),
    /// A real, for a [`Kind::Ns`], [`Kind::Num`] or [`Kind::Sci`] column.
    Real(f64),
    /// No value, in any column: `-` in text, `null` in JSON.
    Absent,
}

macro_rules! cell_from {
    ($($t:ty => $variant:ident),*) => {$(
        impl From<$t> for Cell {
            fn from(v: $t) -> Self {
                Cell::$variant(v.into())
            }
        }
    )*};
}
cell_from!(&str => Label, String => Label, bool => Bool, f64 => Real, u32 => Int, u64 => Int);

impl From<usize> for Cell {
    fn from(n: usize) -> Self {
        Cell::Int(n as u64)
    }
}

/// A simulated time, for a [`Kind::Ns`] column.
impl From<SimTime> for Cell {
    fn from(t: SimTime) -> Self {
        Cell::Real(t.as_ns())
    }
}

impl<T: Into<Cell>> From<Option<T>> for Cell {
    fn from(v: Option<T>) -> Self {
        v.map_or(Cell::Absent, Into::into)
    }
}

impl Cell {
    fn fits(&self, kind: Kind) -> bool {
        matches!(
            (self, kind),
            (Cell::Absent, _)
                | (Cell::Label(_), Kind::Label)
                | (Cell::Int(_), Kind::Count | Kind::Bytes)
                | (Cell::Bool(_), Kind::Bool)
                | (Cell::Real(_), Kind::Ns(_) | Kind::Num(..) | Kind::Sci(_))
        )
    }

    fn text(&self, kind: Kind) -> String {
        match (self, kind) {
            (Cell::Label(s), _) => s.clone(),
            (Cell::Int(n), Kind::Bytes) => fmt_bytes(*n),
            (Cell::Real(x), Kind::Ns(_)) => fmt_ns(*x),
            (Cell::Real(x), Kind::Num(_, unit)) => format!("{}{unit}", number(*x, kind)),
            (Cell::Absent, _) => "-".into(),
            _ => self.json(kind),
        }
    }

    fn json(&self, kind: Kind) -> String {
        match self {
            // Labels are plain text: Debug escapes quotes, backslashes
            // and control characters as JSON does.
            Cell::Label(s) => format!("{s:?}"),
            Cell::Int(n) => n.to_string(),
            Cell::Bool(b) => b.to_string(),
            Cell::Real(x) => number(*x, kind),
            Cell::Absent => "null".into(),
        }
    }
}

/// A number at its column's precision, never a negative zero: a value
/// that rounds to zero prints unsigned.
fn number(x: f64, kind: Kind) -> String {
    let s = match kind {
        Kind::Sci(p) => format!("{x:.p$e}"),
        Kind::Ns(p) | Kind::Num(p, _) => format!("{x:.p$}"),
        _ => unreachable!("not a real-valued column"),
    };
    match s.strip_prefix('-') {
        Some(rest) if !rest.bytes().any(|b| (b'1'..=b'9').contains(&b)) => rest.to_string(),
        _ => s,
    }
}

/// A column of a record table: its header, its kind, and how to read its
/// cell from one record.
pub type Column<T> = (&'static str, Kind, fn(&T) -> Cell);

/// A titled table of typed rows: one experiment's result block.
#[derive(Clone, Debug)]
pub struct Table {
    name: String,
    title: String,
    columns: Vec<(String, Kind)>,
    rows: Vec<Vec<Cell>>,
    notes: Vec<String>,
    /// Where the table's files were written: printed, but not part of
    /// the JSON (a path is not a result).
    written: Vec<String>,
}

impl Table {
    /// Creates a table. `name` is its key in an artifact; `columns` are
    /// the headers (also the JSON column names) and their kinds.
    pub fn new(name: &str, title: impl Into<String>, columns: &[(&str, Kind)]) -> Self {
        Self {
            name: name.to_string(),
            title: title.into(),
            columns: columns.iter().map(|&(h, k)| (h.to_string(), k)).collect(),
            rows: Vec::new(),
            notes: Vec::new(),
            written: Vec::new(),
        }
    }

    /// A table with one row per record, each cell read by its column.
    pub fn of<T>(
        name: &str,
        title: impl Into<String>,
        records: impl IntoIterator<Item = T>,
        columns: &[Column<T>],
    ) -> Self {
        let headers: Vec<(&str, Kind)> = columns.iter().map(|&(h, k, _)| (h, k)).collect();
        let mut table = Self::new(name, title, &headers);
        for r in records {
            table.push(columns.iter().map(|(_, _, cell)| cell(&r)).collect());
        }
        table
    }

    /// Appends a row of typed cells.
    ///
    /// # Panics
    ///
    /// Panics if the cell count differs from the column count or a cell
    /// does not fit its column's kind.
    pub fn row<const N: usize>(&mut self, cells: [Cell; N]) {
        self.push(cells.into());
    }

    fn push(&mut self, cells: Vec<Cell>) {
        assert_eq!(
            cells.len(),
            self.columns.len(),
            "row width must match header width"
        );
        for (cell, (header, kind)) in cells.iter().zip(&self.columns) {
            assert!(
                cell.fits(*kind),
                "{cell:?} does not fit column {header} ({kind:?})"
            );
        }
        self.rows.push(cells);
    }

    /// Appends a footnote line printed under the table.
    pub fn note(&mut self, note: impl Into<String>) {
        self.notes.push(note.into());
    }

    /// Notes where a file was written (or why it was not): printed under
    /// the table, left out of its JSON.
    pub fn note_written(&mut self, note: String) {
        self.written.push(note);
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True if no rows were added.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Each row's cells rendered by `form` (`Cell::text` or `Cell::json`).
    fn cells(&self, form: fn(&Cell, Kind) -> String) -> Vec<Vec<String>> {
        let kinds = || self.columns.iter().map(|&(_, k)| k);
        self.rows
            .iter()
            .map(|r| r.iter().zip(kinds()).map(|(c, k)| form(c, k)).collect())
            .collect()
    }

    /// Renders the table as aligned text, the notes of where its files
    /// were written last.
    pub fn render(&self) -> String {
        let mut out = self.results();
        for note in &self.written {
            let _ = writeln!(out, "  note: {note}");
        }
        out
    }

    /// [`Table::render`] without the notes of where files were written:
    /// what the table's EXPERIMENTS.md block holds.
    pub(crate) fn results(&self) -> String {
        let text = self.cells(Cell::text);
        // Widths count bytes while padding counts chars, so a cell with a
        // `µ` gets one more space: the layout every captured table has.
        let mut widths: Vec<usize> = self.columns.iter().map(|(h, _)| h.len()).collect();
        for row in &text {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let line = |cells: Vec<&String>| {
            let padded: Vec<String> = cells
                .iter()
                .zip(&widths)
                .map(|(c, &w)| format!("{c:>w$}"))
                .collect();
            padded.join("   ") + "\n"
        };
        let mut out = format!("== {} ==\n", self.title);
        out += &line(self.columns.iter().map(|(h, _)| h).collect());
        out += &"-".repeat(widths.iter().sum::<usize>() + 3 * (widths.len().max(1) - 1));
        out.push('\n');
        for row in &text {
            out += &line(row.iter().collect());
        }
        for note in &self.notes {
            let _ = writeln!(out, "  note: {note}");
        }
        out
    }

    /// Renders the table as one artifact member: its name, then its
    /// title, columns, one row per line, and notes.
    pub fn json(&self) -> String {
        let block = |items: Vec<String>| {
            if items.is_empty() {
                return "[]".to_string();
            }
            format!("[\n      {}\n    ]", items.join(",\n      "))
        };
        let rows = self
            .cells(Cell::json)
            .iter()
            .map(|r| format!("[{}]", r.join(", ")))
            .collect();
        let columns: Vec<String> = self.columns.iter().map(|(h, _)| format!("{h:?}")).collect();
        format!(
            "  {:?}: {{\n    \"title\": {:?},\n    \"columns\": [{}],\n    \"rows\": {},\n    \"notes\": {}\n  }}",
            self.name,
            self.title,
            columns.join(", "),
            block(rows),
            block(self.notes.iter().map(|n| format!("{n:?}")).collect()),
        )
    }
}

impl core::fmt::Display for Table {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(&self.render())
    }
}

/// Formats nanoseconds with an adaptive unit.
pub fn fmt_ns(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.2} s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.2} ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.1} µs", ns / 1e3)
    } else {
        format!("{ns:.0} ns")
    }
}

/// Formats a byte count with an adaptive binary unit.
pub fn fmt_bytes(bytes: u64) -> String {
    const UNITS: [&str; 5] = ["B", "KiB", "MiB", "GiB", "TiB"];
    let mut v = bytes as f64;
    let mut unit = 0;
    while v >= 1024.0 && unit + 1 < UNITS.len() {
        v /= 1024.0;
        unit += 1;
    }
    if unit == 0 {
        format!("{bytes} B")
    } else {
        format!("{v:.2} {}", UNITS[unit])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = Table::new("demo", "demo", &[("n", Kind::Label), ("time", Kind::Ns(0))]);
        t.row(["2^20".into(), 1.5e6.into()]);
        t.row(["2^24".into(), 12.0e6.into()]);
        t.note("synthetic");
        let s = t.render();
        assert!(s.contains("== demo =="));
        assert!(s.contains("2^24   12.00 ms"));
        assert!(s.contains("note: synthetic"));
        assert_eq!(t.len(), 2);
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn mismatched_row_panics() {
        let mut t = Table::new("demo", "demo", &[("a", Kind::Label), ("b", Kind::Label)]);
        t.row(["only-one".into()]);
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn mistyped_cell_panics() {
        let mut t = Table::new("demo", "demo", &[("a", Kind::Count)]);
        t.row([1.5.into()]);
    }

    #[test]
    fn one_precision_for_text_and_json_and_no_negative_zero() {
        let mut t = Table::new(
            "demo",
            "demo \"q\"",
            &[
                ("ratio", Kind::Num(2, "x")),
                ("delta", Kind::Num(4, "")),
                ("err", Kind::Sci(3)),
                ("ok", Kind::Bool),
                ("opt", Kind::Num(1, "%")),
            ],
        );
        t.row([
            4.256.into(),
            (-0.00004).into(),
            (-0.0).into(),
            true.into(),
            None::<f64>.into(),
        ]);
        t.note("n");
        t.note_written("written to x".into());
        assert!(
            t.render().contains("4.26x   0.0000   0.000e0   true     -"),
            "{}",
            t.render()
        );
        let json = t.json();
        assert!(
            json.contains("[4.26, 0.0000, 0.000e0, true, null]"),
            "{json}"
        );
        assert!(json.contains(r#""title": "demo \"q\"""#), "{json}");
        let parsed = unintt_telemetry::parse_json(&format!("{{{json}}}")).unwrap();
        assert_eq!(
            parsed.get("demo").unwrap().get("title").unwrap().as_str(),
            Some("demo \"q\"")
        );
        assert!(!json.contains("written"), "file notes stay out of the JSON");
        assert!(t.render().ends_with("  note: n\n  note: written to x\n"));
        assert!(
            t.results().ends_with("  note: n\n"),
            "results leave file notes out"
        );
    }

    #[test]
    fn unit_formatting() {
        assert_eq!(fmt_ns(500.0), "500 ns");
        assert_eq!(fmt_ns(1500.0), "1.5 µs");
        assert_eq!(fmt_ns(2_500_000.0), "2.50 ms");
        assert_eq!(fmt_ns(3.2e9), "3.20 s");
        assert_eq!(fmt_bytes(512), "512 B");
        assert_eq!(fmt_bytes(1536), "1.50 KiB");
        assert_eq!(fmt_bytes(1 << 30), "1.00 GiB");
    }
}
