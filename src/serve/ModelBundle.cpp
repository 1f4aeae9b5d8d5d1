//===- serve/ModelBundle.cpp ----------------------------------------------===//

#include "serve/ModelBundle.h"

#include "ir/Printer.h"
#include "support/FileIO.h"
#include "support/StringUtils.h"

#include <cstdio>
#include <cstring>

using namespace metaopt;

//===----------------------------------------------------------------------===//
// Container plumbing
//===----------------------------------------------------------------------===//

namespace {

constexpr char BundleMagic[8] = {'M', 'O', 'B', 'U', 'N', 'D', 'L', 'E'};
constexpr size_t HeaderBytes = 8 + 3 * 8; // magic, version, size, checksum.

void appendU64(std::string &Out, uint64_t Value) {
  for (int I = 0; I < 8; ++I)
    Out.push_back(static_cast<char>(Value >> (8 * I)));
}

uint64_t readU64(const unsigned char *Data) {
  uint64_t Value = 0;
  for (int I = 0; I < 8; ++I)
    Value |= static_cast<uint64_t>(Data[I]) << (8 * I);
  return Value;
}

uint64_t payloadChecksum(const std::string &Payload) {
  FingerprintHasher H;
  H.str("metaopt-model-bundle-file-v1");
  H.bytes(Payload.data(), Payload.size());
  return H.digest().Lo;
}

/// Appends one length-prefixed section (name, then body).
void appendSection(std::string &Out, std::string_view Name,
                   std::string_view Body) {
  appendU64(Out, Name.size());
  Out.append(Name.data(), Name.size());
  appendU64(Out, Body.size());
  Out.append(Body.data(), Body.size());
}

/// Splits the payload into its named sections; false on malformed layout.
bool splitSections(
    const std::string &Payload,
    std::vector<std::pair<std::string, std::string>> &Sections) {
  size_t Pos = 0;
  const unsigned char *Data =
      reinterpret_cast<const unsigned char *>(Payload.data());
  while (Pos < Payload.size()) {
    if (Payload.size() - Pos < 8)
      return false;
    uint64_t NameLen = readU64(Data + Pos);
    Pos += 8;
    if (NameLen > Payload.size() - Pos)
      return false;
    std::string Name = Payload.substr(Pos, NameLen);
    Pos += NameLen;
    if (Payload.size() - Pos < 8)
      return false;
    uint64_t BodyLen = readU64(Data + Pos);
    Pos += 8;
    if (BodyLen > Payload.size() - Pos)
      return false;
    Sections.emplace_back(std::move(Name), Payload.substr(Pos, BodyLen));
    Pos += BodyLen;
  }
  return true;
}

const std::string *findSection(
    const std::vector<std::pair<std::string, std::string>> &Sections,
    std::string_view Name) {
  for (const auto &[SectionName, Body] : Sections)
    if (SectionName == Name)
      return &Body;
  return nullptr;
}

//===----------------------------------------------------------------------===//
// Sections
//===----------------------------------------------------------------------===//

std::string renderProvenance(const BundleProvenance &Prov) {
  char Buffer[64];
  std::string Out;
  Out += "classifier " + Prov.ClassifierName + "\n";
  Out += "created-by " + Prov.CreatedBy + "\n";
  Out += "machine " + Prov.MachineName + "\n";
  Out += std::string("swp ") + (Prov.EnableSwp ? "1" : "0") + "\n";
  Out += "corpus-seed " + std::to_string(Prov.CorpusSeed) + "\n";
  Out += "corpus-fingerprint " + Prov.CorpusFingerprint + "\n";
  Out += "training-examples " + std::to_string(Prov.TrainingExamples) +
         "\n";
  Out += "cv-method " + Prov.CvMethod + "\n";
  std::snprintf(Buffer, sizeof(Buffer), "cv-accuracy %.17g\n",
                Prov.CvAccuracy);
  Out += Buffer;
  return Out;
}

bool parseProvenance(const std::string &Body, BundleProvenance &Prov,
                     std::string &Error) {
  for (const std::string &Line : split(Body, '\n')) {
    std::string_view Trimmed = trim(Line);
    if (Trimmed.empty())
      continue;
    size_t Space = Trimmed.find(' ');
    std::string Key(Trimmed.substr(0, Space));
    std::string Value(
        Space == std::string_view::npos
            ? std::string_view{}
            : trim(Trimmed.substr(Space + 1)));
    if (Key == "classifier") {
      Prov.ClassifierName = Value;
    } else if (Key == "created-by") {
      Prov.CreatedBy = Value;
    } else if (Key == "machine") {
      Prov.MachineName = Value;
    } else if (Key == "swp") {
      Prov.EnableSwp = Value == "1";
    } else if (Key == "corpus-seed") {
      std::optional<int64_t> Seed = parseInt(Value);
      if (!Seed) {
        Error = "provenance: bad corpus-seed";
        return false;
      }
      Prov.CorpusSeed = static_cast<uint64_t>(*Seed);
    } else if (Key == "corpus-fingerprint") {
      Prov.CorpusFingerprint = Value;
    } else if (Key == "training-examples") {
      std::optional<int64_t> Count = parseInt(Value);
      if (!Count || *Count < 0) {
        Error = "provenance: bad training-examples";
        return false;
      }
      Prov.TrainingExamples = static_cast<uint64_t>(*Count);
    } else if (Key == "cv-method") {
      Prov.CvMethod = Value;
    } else if (Key == "cv-accuracy") {
      std::optional<double> Accuracy = parseDouble(Value);
      if (!Accuracy) {
        Error = "provenance: bad cv-accuracy";
        return false;
      }
      Prov.CvAccuracy = *Accuracy;
    }
    // Unknown keys are ignored: a same-version writer may add
    // informational fields without invalidating older readers.
  }
  if (Prov.ClassifierName.empty()) {
    Error = "provenance: missing classifier name";
    return false;
  }
  return true;
}

/// The features section records the full catalog schema (count + names in
/// order) followed by the selected subset, so a reader whose catalog
/// drifted — renamed, reordered, added, or removed features — rejects the
/// bundle instead of silently feeding the classifier permuted inputs.
std::string renderFeatures(const FeatureSet &Features) {
  std::string Out = "catalog " + std::to_string(NumFeatures) + "\n";
  for (unsigned I = 0; I < NumFeatures; ++I)
    Out += std::string(featureName(static_cast<FeatureId>(I))) + "\n";
  Out += "selected " + std::to_string(Features.size()) + "\n";
  for (FeatureId Id : Features)
    Out += std::string(featureName(Id)) + "\n";
  return Out;
}

bool parseFeatures(const std::string &Body, FeatureSet &Features,
                   std::string &Error) {
  std::vector<std::string> Lines = split(Body, '\n');
  size_t Pos = 0;
  auto NextLine = [&]() -> std::optional<std::string> {
    while (Pos < Lines.size()) {
      std::string_view Trimmed = trim(Lines[Pos]);
      ++Pos;
      if (!Trimmed.empty())
        return std::string(Trimmed);
    }
    return std::nullopt;
  };

  std::optional<std::string> Header = NextLine();
  std::vector<std::string> HeaderParts =
      Header ? splitWhitespace(*Header) : std::vector<std::string>{};
  if (HeaderParts.size() != 2 || HeaderParts[0] != "catalog") {
    Error = "features: missing catalog header";
    return false;
  }
  std::optional<int64_t> CatalogCount = parseInt(HeaderParts[1]);
  if (!CatalogCount || *CatalogCount != NumFeatures) {
    Error = "features: catalog has " + HeaderParts[1] +
            " features, this build expects " + std::to_string(NumFeatures);
    return false;
  }
  for (unsigned I = 0; I < NumFeatures; ++I) {
    std::optional<std::string> Name = NextLine();
    const char *Expected = featureName(static_cast<FeatureId>(I));
    if (!Name || *Name != Expected) {
      Error = "features: catalog schema mismatch at index " +
              std::to_string(I) + " (bundle has '" +
              (Name ? *Name : "<eof>") + "', this build has '" + Expected +
              "')";
      return false;
    }
  }

  std::optional<std::string> Selected = NextLine();
  std::vector<std::string> SelectedParts =
      Selected ? splitWhitespace(*Selected) : std::vector<std::string>{};
  if (SelectedParts.size() != 2 || SelectedParts[0] != "selected") {
    Error = "features: missing selected header";
    return false;
  }
  std::optional<int64_t> SelectedCount = parseInt(SelectedParts[1]);
  if (!SelectedCount || *SelectedCount < 0 ||
      *SelectedCount > NumFeatures) {
    Error = "features: bad selected count";
    return false;
  }
  for (int64_t I = 0; I < *SelectedCount; ++I) {
    std::optional<std::string> Name = NextLine();
    if (!Name) {
      Error = "features: selected list is truncated";
      return false;
    }
    bool Found = false;
    for (unsigned Id = 0; Id < NumFeatures; ++Id)
      if (*Name == featureName(static_cast<FeatureId>(Id))) {
        Features.push_back(static_cast<FeatureId>(Id));
        Found = true;
        break;
      }
    if (!Found) {
      Error = "features: unknown selected feature '" + *Name + "'";
      return false;
    }
  }
  return true;
}

} // namespace

//===----------------------------------------------------------------------===//
// Public API
//===----------------------------------------------------------------------===//

std::unique_ptr<Classifier> ModelBundle::instantiate() const {
  return deserializeClassifier(ClassifierBlob, Provenance.ClassifierName);
}

std::string metaopt::serializeBundle(const ModelBundle &Bundle) {
  std::string Payload;
  appendSection(Payload, "provenance", renderProvenance(Bundle.Provenance));
  appendSection(Payload, "features", renderFeatures(Bundle.Features));
  appendSection(Payload, "classifier", Bundle.ClassifierBlob);

  std::string Content;
  Content.reserve(HeaderBytes + Payload.size());
  Content.append(BundleMagic, sizeof(BundleMagic));
  appendU64(Content, ModelBundleFileVersion);
  appendU64(Content, Payload.size());
  appendU64(Content, payloadChecksum(Payload));
  Content += Payload;
  return Content;
}

namespace {

/// Container-level validation shared by parseBundle and inspectBundleFile:
/// fills Version/PayloadBytes and either the sections or the error.
bool validateContainer(
    const std::string &Content, ModelBundleInfo &Info,
    std::vector<std::pair<std::string, std::string>> &Sections) {
  const unsigned char *Data =
      reinterpret_cast<const unsigned char *>(Content.data());
  if (Content.empty()) {
    Info.Error = "file missing or empty";
    return false;
  }
  if (Content.size() < HeaderBytes) {
    Info.Error = "truncated header";
    return false;
  }
  if (std::memcmp(Data, BundleMagic, sizeof(BundleMagic)) != 0) {
    Info.Error = "bad magic (not a metaopt model bundle)";
    return false;
  }
  Info.Version = readU64(Data + 8);
  if (Info.Version != ModelBundleFileVersion) {
    Info.Error = "version mismatch (file v" + std::to_string(Info.Version) +
                 ", expected v" + std::to_string(ModelBundleFileVersion) +
                 ")";
    return false;
  }
  Info.PayloadBytes = readU64(Data + 16);
  uint64_t Checksum = readU64(Data + 24);
  if (Content.size() - HeaderBytes != Info.PayloadBytes) {
    Info.Error = "payload size does not match the header";
    return false;
  }
  std::string Payload = Content.substr(HeaderBytes);
  if (payloadChecksum(Payload) != Checksum) {
    Info.Error = "checksum mismatch (corrupt payload)";
    return false;
  }
  if (!splitSections(Payload, Sections)) {
    Info.Error = "malformed section layout";
    return false;
  }
  return true;
}

/// Full parse shared by parseBundle and inspectBundleFile.
bool parseInto(const std::string &Content, ModelBundle &Bundle,
               ModelBundleInfo &Info) {
  std::vector<std::pair<std::string, std::string>> Sections;
  if (!validateContainer(Content, Info, Sections))
    return false;

  const std::string *Provenance = findSection(Sections, "provenance");
  const std::string *Features = findSection(Sections, "features");
  const std::string *Blob = findSection(Sections, "classifier");
  if (!Provenance || !Features || !Blob) {
    Info.Error = "missing required section";
    return false;
  }
  if (!parseProvenance(*Provenance, Bundle.Provenance, Info.Error))
    return false;
  if (!parseFeatures(*Features, Bundle.Features, Info.Error))
    return false;
  if (Blob->empty()) {
    Info.Error = "empty classifier blob";
    return false;
  }
  Bundle.ClassifierBlob = *Blob;

  Info.Valid = true;
  Info.Provenance = Bundle.Provenance;
  Info.FeatureCount = Bundle.Features.size();
  Info.ClassifierBytes = Bundle.ClassifierBlob.size();
  return true;
}

} // namespace

std::optional<ModelBundle> metaopt::parseBundle(const std::string &Content,
                                                std::string *Error) {
  ModelBundle Bundle;
  ModelBundleInfo Info;
  if (!parseInto(Content, Bundle, Info)) {
    if (Error)
      *Error = Info.Error;
    return std::nullopt;
  }
  return Bundle;
}

bool metaopt::saveBundleFile(const ModelBundle &Bundle,
                             const std::string &Path, std::string *Error) {
  return publishFile(Path, serializeBundle(Bundle), Error);
}

std::optional<ModelBundle> metaopt::loadBundleFile(const std::string &Path,
                                                   std::string *Error) {
  std::optional<std::string> Content = readFile(Path, Error);
  if (!Content)
    return std::nullopt;
  return parseBundle(*Content, Error);
}

ModelBundleInfo metaopt::inspectBundleFile(const std::string &Path) {
  ModelBundle Bundle;
  ModelBundleInfo Info;
  std::optional<std::string> Content = readFile(Path, &Info.Error);
  if (!Content)
    Info.Error = "file missing or unreadable: " + Info.Error;
  else
    parseInto(*Content, Bundle, Info);
  return Info;
}

//===----------------------------------------------------------------------===//
// Corpus fingerprinting
//===----------------------------------------------------------------------===//

Fingerprint
metaopt::corpusFingerprint(const std::vector<Benchmark> &Corpus) {
  FingerprintHasher H;
  H.str("metaopt-corpus-fingerprint-v1");
  H.u64(Corpus.size());
  for (const Benchmark &Bench : Corpus) {
    H.str(Bench.Name);
    H.str(Bench.Suite);
    H.i64(static_cast<int64_t>(Bench.Lang));
    H.boolean(Bench.FloatingPoint);
    H.f64(Bench.NonLoopFraction);
    H.u64(Bench.Loops.size());
    for (const CorpusLoop &Entry : Bench.Loops) {
      // The canonical loop text covers everything the simulator and the
      // feature extractor read from the Loop (same rationale as
      // simCacheKey).
      H.str(printLoop(Entry.TheLoop));
      H.i64(Entry.Ctx.EffectiveIcacheBytes);
      H.f64(Entry.Ctx.DcacheMissRate);
      H.i64(Entry.Ctx.DcacheMissCycles);
      H.f64(Entry.Ctx.DcacheVisibleFraction);
      H.i64(Entry.Ctx.IntRegBudget);
      H.i64(Entry.Ctx.FpRegBudget);
      H.i64(Entry.Executions);
      H.i64(static_cast<int64_t>(Entry.Kind));
    }
  }
  return H.digest();
}

std::string metaopt::fingerprintHex(const Fingerprint &Print) {
  char Buffer[40];
  std::snprintf(Buffer, sizeof(Buffer), "%016llx%016llx",
                static_cast<unsigned long long>(Print.Hi),
                static_cast<unsigned long long>(Print.Lo));
  return Buffer;
}

std::string metaopt::bundleChecksumHex(const ModelBundle &Bundle) {
  std::string Bytes = serializeBundle(Bundle);
  FingerprintHasher H;
  H.bytes(Bytes.data(), Bytes.size());
  return fingerprintHex(H.digest());
}
