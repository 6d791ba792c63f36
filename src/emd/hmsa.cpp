#include "emd/hmsa.hpp"

#include "emd/schema.hpp"
#include "util/bytes.hpp"
#include "util/crc64.hpp"
#include "util/strings.hpp"
#include "util/xml.hpp"

namespace pico::emd {
namespace {

using util::XmlNode;

// JSON <-> XML bridging for attribute blocks: scalars become child elements
// with text; nested objects become nested elements; arrays become repeated
// <Item> children. Enough to round-trip the canonical metadata blocks.
void json_to_xml(const util::Json& j, XmlNode* node) {
  switch (j.type()) {
    case util::Json::Type::Object:
      for (const auto& [k, v] : j.as_object()) {
        XmlNode& c = node->add_child(k);
        json_to_xml(v, &c);
      }
      break;
    case util::Json::Type::Array:
      for (const auto& v : j.as_array()) {
        XmlNode& c = node->add_child("Item");
        json_to_xml(v, &c);
      }
      break;
    case util::Json::Type::Null:
      node->attrs["nil"] = "true";
      break;
    case util::Json::Type::Bool:
      node->attrs["type"] = "bool";
      node->text = j.as_bool() ? "true" : "false";
      break;
    case util::Json::Type::Int:
      node->attrs["type"] = "int";
      node->text = std::to_string(j.as_int());
      break;
    case util::Json::Type::Double:
      node->attrs["type"] = "float";
      node->text = util::format("%.17g", j.as_double());
      break;
    case util::Json::Type::String:
      node->text = j.as_string();
      break;
  }
}

util::Json xml_to_json(const XmlNode& node) {
  if (node.attr("nil") == "true") return util::Json();
  if (!node.children.empty()) {
    // Repeated <Item> children -> array; otherwise object.
    bool all_items = true;
    for (const auto& c : node.children) {
      if (c.name != "Item") {
        all_items = false;
        break;
      }
    }
    if (all_items) {
      util::Json arr = util::Json::array();
      for (const auto& c : node.children) arr.push_back(xml_to_json(c));
      return arr;
    }
    util::Json obj = util::Json::object();
    for (const auto& c : node.children) obj[c.name] = xml_to_json(c);
    return obj;
  }
  const std::string type = node.attr("type");
  if (type == "bool") return util::Json(node.text == "true");
  if (type == "int") return util::Json(std::stoll(node.text));
  if (type == "float") return util::Json(std::stod(node.text));
  return util::Json(node.text);
}

}  // namespace

util::Result<HmsaPair> to_hmsa(const File& file) {
  using R = util::Result<HmsaPair>;
  HmsaPair pair;

  XmlNode root;
  root.name = "MSAHyperDimensionalDataFile";
  root.attrs["Version"] = "1.0";

  // Header: title-ish root attributes.
  XmlNode& header = root.ensure_child("Header");
  for (const auto& [k, v] : file.root.attrs) {
    XmlNode& node = header.add_child(k);
    json_to_xml(v, &node);
  }

  // Conditions: the canonical metadata groups (microscope/sample/user).
  XmlNode& conditions = root.ensure_child("Conditions");
  for (const char* group_name :
       {Paths::kMicroscope, Paths::kSample, Paths::kUser}) {
    const Group* group = file.root.find_group(group_name);
    if (!group) continue;
    XmlNode& gnode = conditions.add_child(group_name);
    for (const auto& [k, v] : group->attrs) {
      XmlNode& node = gnode.add_child(k);
      json_to_xml(v, &node);
    }
  }

  // Data: every signal dataset, payload appended to the blob.
  XmlNode& data = root.ensure_child("Data");
  const Group* signals = file.root.find_group(Paths::kData);
  if (signals) {
    for (const auto& [name, group] : signals->groups) {
      auto ds_it = group.datasets.find("data");
      if (ds_it == group.datasets.end()) continue;
      const Dataset& ds = ds_it->second;
      if (!ds.payload_loaded()) {
        return R::err("dataset " + name + " payload not loaded", "state");
      }
      XmlNode& array = data.add_child("Array");
      array.attrs["Name"] = name;
      array.attrs["Type"] = std::string(tensor::dtype_name(ds.dtype()));
      array.attrs["Offset"] = std::to_string(pair.binary.size());
      array.attrs["Bytes"] = std::to_string(ds.nbytes());
      array.attrs["Checksum"] = util::to_hex_u64(ds.crc());

      XmlNode& dims = array.ensure_child("Dimensions");
      for (size_t d : ds.shape()) {
        dims.add_child("Dim", std::to_string(d));
      }
      XmlNode& meta = array.ensure_child("SignalAttributes");
      for (const auto& [k, v] : group.attrs) {
        XmlNode& node = meta.add_child(k);
        json_to_xml(v, &node);
      }
      pair.binary.insert(pair.binary.end(), ds.raw().begin(), ds.raw().end());
    }
  }

  pair.xml = util::xml_serialize(root);
  return R::ok(std::move(pair));
}

util::Result<File> from_hmsa(const HmsaPair& pair) {
  using R = util::Result<File>;
  auto doc = util::xml_parse(pair.xml);
  if (!doc) return R::err("HMSA XML: " + doc.error().message, "parse");
  const XmlNode& root = doc.value();
  if (root.name != "MSAHyperDimensionalDataFile") {
    return R::err("not an HMSA document (root " + root.name + ")", "parse");
  }

  File file;
  if (const XmlNode* header = root.child("Header")) {
    for (const auto& c : header->children) {
      file.root.attrs[c.name] = xml_to_json(c);
    }
  }
  if (const XmlNode* conditions = root.child("Conditions")) {
    for (const auto& gnode : conditions->children) {
      Group& group = file.root.ensure_group(gnode.name);
      for (const auto& c : gnode.children) {
        group.attrs[c.name] = xml_to_json(c);
      }
    }
  }

  if (const XmlNode* data = root.child("Data")) {
    for (const XmlNode* array : data->children_named("Array")) {
      std::string name = array->attr("Name");
      auto dtype = tensor::dtype_from_name(array->attr("Type"));
      if (!dtype) return R::err("array " + name + ": " + dtype.error().message, "parse");
      size_t offset = 0, nbytes = 0;
      try {
        offset = static_cast<size_t>(std::stoull(array->attr("Offset", "0")));
        nbytes = static_cast<size_t>(std::stoull(array->attr("Bytes", "0")));
      } catch (const std::exception&) {
        return R::err("array " + name + ": bad offset/bytes", "parse");
      }
      if (offset > pair.binary.size() ||
          nbytes > pair.binary.size() - offset) {
        return R::err("array " + name + ": payload out of range", "corrupt");
      }

      tensor::Shape shape;
      if (const XmlNode* dims = array->child("Dimensions")) {
        for (const XmlNode* dim : dims->children_named("Dim")) {
          try {
            shape.push_back(static_cast<size_t>(std::stoull(dim->text)));
          } catch (const std::exception&) {
            return R::err("array " + name + ": bad dimension", "parse");
          }
        }
      }
      auto expected =
          tensor::checked_shape_bytes(shape, tensor::dtype_size(dtype.value()));
      if (!expected || *expected != nbytes) {
        return R::err("array " + name + ": shape/bytes mismatch", "parse");
      }

      std::vector<uint8_t> payload(
          pair.binary.begin() + static_cast<ptrdiff_t>(offset),
          pair.binary.begin() + static_cast<ptrdiff_t>(offset + nbytes));
      Dataset ds(dtype.value(), shape, std::move(payload));

      // Checksum verification against the XML entry.
      const std::string want_hex = array->attr("Checksum");
      if (!want_hex.empty() &&
          want_hex != util::to_hex_u64(ds.crc())) {
        return R::err("array " + name + ": checksum mismatch", "corrupt");
      }

      Group& sig = file.root.ensure_group(std::string(Paths::kData) + "/" + name);
      if (const XmlNode* meta = array->child("SignalAttributes")) {
        for (const auto& c : meta->children) {
          sig.attrs[c.name] = xml_to_json(c);
        }
      }
      sig.datasets.emplace("data", std::move(ds));
    }
  }
  return R::ok(std::move(file));
}

util::Status save_hmsa(const File& file, const std::string& base_path) {
  auto pair = to_hmsa(file);
  if (!pair) return util::Status::err(pair.error());
  if (auto st = util::write_file(base_path + ".xml", pair.value().xml); !st) {
    return st;
  }
  return util::write_file(base_path + ".hmsa", pair.value().binary);
}

util::Result<File> load_hmsa(const std::string& base_path) {
  using R = util::Result<File>;
  auto xml = util::read_file(base_path + ".xml");
  if (!xml) return R::err(xml.error());
  auto binary = util::read_file(base_path + ".hmsa");
  if (!binary) return R::err(binary.error());
  HmsaPair pair;
  pair.xml.assign(xml.value().begin(), xml.value().end());
  pair.binary = std::move(binary).value();
  return from_hmsa(pair);
}

}  // namespace pico::emd
