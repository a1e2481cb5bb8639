#include "server/remote_server.hpp"

#include <gtest/gtest.h>

#include "object/builders.hpp"

namespace mobi::server {
namespace {

object::Catalog small_catalog() { return object::Catalog({2, 3, 5}); }

TEST(RemoteServer, StartsAtVersionZero) {
  const auto catalog = small_catalog();
  RemoteServer server(catalog);
  EXPECT_EQ(server.object_count(), 3u);
  for (object::ObjectId id = 0; id < 3; ++id) {
    EXPECT_EQ(server.version(id), 0u);
    EXPECT_EQ(server.updated_at(id), 0);
  }
  EXPECT_EQ(server.total_updates(), 0u);
}

TEST(RemoteServer, UpdateBumpsVersionAndTimestamp) {
  const auto catalog = small_catalog();
  RemoteServer server(catalog);
  server.apply_update(1, 7);
  EXPECT_EQ(server.version(1), 1u);
  EXPECT_EQ(server.updated_at(1), 7);
  EXPECT_EQ(server.version(0), 0u);
  server.apply_update(1, 9);
  EXPECT_EQ(server.version(1), 2u);
  EXPECT_EQ(server.updated_at(1), 9);
  EXPECT_EQ(server.total_updates(), 2u);
}

TEST(RemoteServer, FetchReturnsCurrentState) {
  const auto catalog = small_catalog();
  RemoteServer server(catalog);
  server.apply_update(2, 4);
  const FetchResult fetched = server.fetch(2);
  EXPECT_EQ(fetched.version, 1u);
  EXPECT_EQ(fetched.updated_at, 4);
  EXPECT_EQ(fetched.size, 5);
}

TEST(RemoteServer, BadIdThrows) {
  const auto catalog = small_catalog();
  RemoteServer server(catalog);
  EXPECT_THROW(server.version(3), std::out_of_range);
  EXPECT_THROW(server.fetch(99), std::out_of_range);
  EXPECT_THROW(server.apply_update(3, 0), std::out_of_range);
}

TEST(ServerPool, RoutesRoundRobin) {
  const auto catalog = object::make_uniform_catalog(6, 1);
  ServerPool pool(catalog, 3);
  EXPECT_EQ(pool.server_count(), 3u);
  EXPECT_EQ(pool.server_for(0), 0u);
  EXPECT_EQ(pool.server_for(1), 1u);
  EXPECT_EQ(pool.server_for(2), 2u);
  EXPECT_EQ(pool.server_for(3), 0u);
}

TEST(ServerPool, UpdateAndFetchThroughPool) {
  const auto catalog = object::make_uniform_catalog(6, 2);
  ServerPool pool(catalog, 3);
  pool.apply_update(4, 11);
  EXPECT_EQ(pool.version(4), 1u);
  EXPECT_EQ(pool.updated_at(4), 11);
  EXPECT_EQ(pool.fetch(4).version, 1u);
  EXPECT_EQ(pool.fetch(4).size, 2);
  // The owning server recorded it; a different server did not.
  EXPECT_EQ(pool.server(pool.server_for(4)).total_updates(), 1u);
  EXPECT_EQ(pool.server((pool.server_for(4) + 1) % 3).total_updates(), 0u);
}

TEST(ServerPool, SingleServerOwnsAll) {
  const auto catalog = small_catalog();
  ServerPool pool(catalog, 1);
  for (object::ObjectId id = 0; id < 3; ++id) {
    EXPECT_EQ(pool.server_for(id), 0u);
  }
}

TEST(ServerPool, RejectsZeroServersAndBadIds) {
  const auto catalog = small_catalog();
  EXPECT_THROW(ServerPool(catalog, 0), std::invalid_argument);
  ServerPool pool(catalog, 2);
  EXPECT_THROW(pool.server_for(3), std::out_of_range);
  EXPECT_THROW(pool.version(3), std::out_of_range);
}

}  // namespace
}  // namespace mobi::server
