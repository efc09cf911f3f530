//! The pipeline bundle a server instance runs: converter, miner, DTD
//! configuration.
//!
//! This mirrors the `webre::Pipeline` facade without depending on the
//! facade crate (which re-exports *this* crate — the dependency points
//! the other way). The CLI builds an [`Engine`] from whatever pipeline
//! its flags configured; tests and the differential oracle use
//! [`Engine::resume_domain`].

use webre_convert::{ConvertStats, Converter};
use webre_schema::{DtdConfig, FrequentPathMiner};
use webre_xml::XmlDocument;

/// Everything the serving layer needs to convert documents and discover
/// schemas. Immutable after construction; shared read-only across
/// workers.
#[derive(Clone, Debug)]
pub struct Engine {
    /// HTML → concept-tagged XML conversion.
    pub converter: Converter,
    /// Frequent-path mining thresholds and constraints.
    pub miner: FrequentPathMiner,
    /// DTD derivation thresholds.
    pub dtd_config: DtdConfig,
}

impl Engine {
    /// The paper's resume domain, mirroring `Pipeline::resume_domain`.
    pub fn resume_domain() -> Self {
        Engine {
            converter: Converter::new(webre_concepts::resume::concepts()),
            miner: FrequentPathMiner {
                constraints: Some(webre_concepts::resume::constraints()),
                ..FrequentPathMiner::default()
            },
            dtd_config: DtdConfig::default(),
        }
    }

    /// Converts one HTML document to the exact pretty-printed XML text
    /// the batch CLI emits (the byte-level serve ≡ batch contract).
    pub fn convert_to_xml(&self, html: &str) -> (XmlDocument, ConvertStats, String) {
        let (doc, stats) = self.converter.convert_str(html);
        let text = webre_xml::to_xml_pretty(&doc);
        (doc, stats, text)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resume_engine_converts_like_the_batch_converter() {
        let engine = Engine::resume_domain();
        let html = "<h2>Education</h2><ul><li>Stanford University, M.S., 1996</li></ul>";
        let (doc, stats, text) = engine.convert_to_xml(html);
        assert_eq!(doc.root_name(), "resume");
        assert!(stats.tokens_identified > 0);
        let batch = Converter::new(webre_concepts::resume::concepts())
            .convert_str(html)
            .0;
        assert_eq!(text, webre_xml::to_xml_pretty(&batch));
    }
}
