//! Benchmark: multinomial naive Bayes training and classification.

use webre_substrate::bench::{criterion_group, criterion_main, Criterion};
use webre_concepts::{matcher::find_matches, resume};
use webre_corpus::CorpusGenerator;
use webre_text::tokenize::{split_tokens, Delimiters};
use webre_text::BayesTrainer;

fn bench_bayes(c: &mut Criterion) {
    let gen = CorpusGenerator::new(3);
    let set = resume::concepts();
    let delims = Delimiters::default();
    let mut labeled: Vec<(String, String)> = Vec::new();
    for doc in gen.generate(20) {
        let text = webre_html::parse(&doc.html).text_content();
        for tok in split_tokens(&text, &delims) {
            let label = find_matches(&set, &tok)
                .first()
                .map(|m| m.concept.to_owned())
                .unwrap_or_else(|| "unknown".into());
            labeled.push((label, tok));
        }
    }

    c.bench_function("bayes/train", |b| {
        b.iter(|| {
            let mut t = BayesTrainer::new();
            for (l, tok) in &labeled {
                t.add(l, tok);
            }
            std::hint::black_box(t.build())
        })
    });

    let mut trainer = BayesTrainer::new();
    for (l, tok) in &labeled {
        trainer.add(l, tok);
    }
    let reference = trainer.build_reference().expect("labeled data");
    let model = trainer.build().expect("labeled data");
    c.bench_function("bayes/classify", |b| {
        b.iter(|| {
            for (_, tok) in labeled.iter().take(100) {
                std::hint::black_box(model.classify(tok));
            }
        })
    });
    // The HashMap-per-class formulation the table layout replaced; kept
    // benchmarked so the table's edge stays visible.
    c.bench_function("bayes/classify_reference", |b| {
        b.iter(|| {
            for (_, tok) in labeled.iter().take(100) {
                std::hint::black_box(reference.classify(tok));
            }
        })
    });
}

criterion_group!(benches, bench_bayes);
criterion_main!(benches);
