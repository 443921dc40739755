//! EXPERIMENTS.md holds every experiment's result blocks as the harness
//! prints them. [`stale_blocks`] finds the blocks that drifted: the
//! tier-1 `docs_drift` test runs it over the paper's tables (E1–E9,
//! E11–E13) and `perf-gate` over every table it reruns in full mode.

use crate::Table;

/// The text renderings of the `tables` whose block in `doc` is missing or
/// differs from it. A block runs from the line equal to the table's title
/// to the closing fence, or to the blank line before the title of another
/// of `tables`: one fence may hold several tables of one experiment, and
/// any other text in the fence is compared. Blocks hold a table's
/// results, not where a run wrote its files ([`Table::note_written`]).
pub fn stale_blocks(doc: &str, tables: &[Table]) -> Vec<String> {
    let texts: Vec<String> = tables.iter().map(Table::results).collect();
    let title = |text: &str| text.lines().next().expect("a title line").to_string();
    texts
        .iter()
        .filter(|text| {
            let block = doc.find(&format!("\n{}\n", title(text))).map(|at| {
                let rest = &doc[at + 1..];
                let next_title = texts
                    .iter()
                    .filter_map(|other| rest.find(&format!("\n\n{}\n", title(other))));
                let end = next_title
                    .map(|blank| blank + 1)
                    .chain(rest.find("```"))
                    .min()
                    .unwrap_or(rest.len());
                &rest[..end]
            });
            block != Some(text.as_str())
        })
        .cloned()
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::Kind;

    fn table(title: &str, n: u64) -> Table {
        let mut table = Table::new("t", title, &[("n", Kind::Count)]);
        table.row([n.into()]);
        table
    }

    #[test]
    fn a_block_ends_at_its_fence_or_at_a_sibling_title() {
        let (a, b) = (table("E99: a", 1), table("E99: b", 2));
        let fence = |body: &str| format!("# E99\n\n```\n{body}```\n\nVerdict.\n");
        let both = format!("{}\n{}", a.render(), b.render());
        let tables = [a, b];
        assert!(stale_blocks(&fence(&both), &tables).is_empty());

        // Text after a blank line inside the fence is part of the block.
        let stray = fence(&format!("{both}\n  note: stale\n"));
        assert_eq!(stale_blocks(&stray, &tables), [tables[1].render()]);
        let extra = fence(&format!("{both}\n{}", table("E98: old", 3).render()));
        assert_eq!(stale_blocks(&extra, &tables), [tables[1].render()]);
        let between = fence(&both.replace("\n\n", "\n\n  note: stale\n\n"));
        assert_eq!(stale_blocks(&between, &tables), [tables[0].render()]);
    }

    #[test]
    fn file_notes_are_not_compared() {
        let mut written = table("E99: a", 1);
        let doc = format!("```\n{}```\n", written.render());
        written.note_written("results written to BENCH_x.json".into());
        assert!(stale_blocks(&doc, &[written.clone()]).is_empty());
        let doc = format!("```\n{}```\n", written.render());
        assert_eq!(stale_blocks(&doc, &[written]).len(), 1);
    }
}
